"""Synthetic graphs and smooth signals for benchmarking graph learners.

Three graph families:

* gaussian: nodes dropped uniformly in the unit square, pair weight
  exp(-dist^2 / (2 sigma^2)), edge kept with that weight when it reaches the
  threshold.  With the defaults (sigma 0.5, threshold 0.75) pairs closer
  than about 0.379 become edges.
* er: every pair independently an edge with probability p, weight 1.
* pa: preferential attachment.  theta0 initial nodes connected in a path,
  then each arriving node attaches to theta distinct existing nodes with
  probability proportional to degree (urn of repeated edge endpoints,
  redrawing duplicates), weight 1.

Signals follow the factor-analysis model tied to the graph: with
eigendecomposition L = U diag(lam) U', draw latent factors with variance
1/lam on the non-null eigenvectors (exactly zero variance on the null
space), add the offset mu_star and isotropic noise of scale epsilon.  The
resulting distribution is N(mu_star, pinv(L) + epsilon^2 I), so signal
energy concentrates on the graph's smooth spectral directions.

Randomness is split into named streams: graph topology and signal draws use
independent child generators of the spec seed, so regenerating signals never
perturbs the graph stream and vice versa.  Everything is bit-reproducible
for a fixed seed.  Disconnected draws are returned as-is; the connected flag
in the provenance is how downstream consumers find out.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .laplacian import edge_count, expand, pair_indices, pair_to_linear

GRAPH_FAMILIES = ("gaussian", "er", "pa")

# The family that reads each family parameter of GraphSpec.
PARAM_FAMILY = {"sigma": "gaussian", "threshold": "gaussian", "p": "er", "theta0": "pa", "theta": "pa"}

# spawn_key values of the child generators (the stream-splitting rule).
GRAPH_STREAM = 0
SIGNAL_STREAM = 1

# Laplacian eigenvalues at or below RANK_TOL * lam_max count as null
# directions and get exactly zero latent variance.
RANK_TOL = 1e-10


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Child generator of `seed` for the given named stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


@dataclass(frozen=True)
class GraphSpec:
    """Family selector plus that family's parameters.

    Only the parameters of the chosen family are read (PARAM_FAMILY); a
    parameter of another family must keep its default.
    """

    family: str
    m: int
    seed: int
    sigma: float = 0.5
    threshold: float = 0.75
    p: float = 0.2
    theta0: int = 2
    theta: int = 1

    def __post_init__(self):
        if self.family not in GRAPH_FAMILIES:
            raise ValueError(
                f"unknown graph family {self.family!r}, expected one of {GRAPH_FAMILIES}"
            )
        if self.m < 2:
            raise ValueError(f"need at least two nodes, got m={self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for param in fields(self):
            owner = PARAM_FAMILY.get(param.name, self.family)
            if owner != self.family and getattr(self, param.name) != param.default:
                raise ValueError(
                    f"only the {owner} family reads {param.name}; omit it for {self.family}"
                )
        if self.family == "gaussian":
            if not self.sigma > 0:
                raise ValueError(f"sigma must be positive, got {self.sigma}")
            if not 0 < self.threshold <= 1:
                raise ValueError(f"threshold must lie in (0, 1], got {self.threshold}")
        if self.family == "er" and not 0 <= self.p <= 1:
            raise ValueError(f"edge probability must lie in [0, 1], got {self.p}")
        if self.family == "pa":
            if self.theta0 < 2:
                raise ValueError(f"need at least two initial nodes, got theta0={self.theta0}")
            if self.theta0 > self.m:
                raise ValueError(
                    f"theta0={self.theta0} exceeds node count m={self.m}"
                )
            if not 1 <= self.theta <= self.theta0:
                raise ValueError(
                    f"attachment count theta={self.theta} must lie in 1..theta0"
                )


@dataclass(frozen=True)
class SignalSpec:
    """Observation count, noise scale, offset, and the signal-stream seed."""

    n: int
    epsilon: float
    seed: int
    mu_star: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mu_star is not None:
            # a tuple keeps the spec a value: equal specs compare and hash equal
            object.__setattr__(self, "mu_star", tuple(map(float, self.mu_star)))
        if self.n < 1:
            raise ValueError(f"need at least one observation, got n={self.n}")
        if not self.epsilon >= 0:
            raise ValueError(f"noise scale must be nonnegative, got {self.epsilon}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class GeneratedGraph:
    """Pair weights of a sampled graph on m nodes."""

    weights: np.ndarray
    m: int

    @property
    def laplacian(self) -> np.ndarray:
        return expand(self.weights, self.m)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.weights))

    @cached_property
    def connected(self) -> bool:
        """True when every node is reachable from node 0 along positive-weight
        pairs (breadth-first, one frontier per step)."""
        rows, cols = pair_indices(self.m)
        nz = self.weights > 0
        adj = np.zeros((self.m, self.m), dtype=bool)
        adj[rows[nz], cols[nz]] = True
        adj |= adj.T
        reached = np.zeros(self.m, dtype=bool)
        frontier = reached.copy()
        frontier[0] = True
        while frontier.any():
            reached |= frontier
            frontier = adj[frontier].any(axis=0) & ~reached
        return bool(reached.all())


def gen_graph(spec: GraphSpec) -> GeneratedGraph:
    """Sample the graph of spec.family from the graph stream of spec.seed."""
    sample = {"gaussian": _gaussian_weights, "er": _er_weights, "pa": _pa_weights}[spec.family]
    return GeneratedGraph(sample(spec, stream_rng(spec.seed, GRAPH_STREAM)), spec.m)


def rbf_weights(coords: np.ndarray, sigma: float) -> np.ndarray:
    """Pairwise exp(-dist^2 / (2 sigma^2)) in pair-index order."""
    coords = np.asarray(coords, dtype=float)
    rows, cols = pair_indices(coords.shape[0])
    diff = coords[rows] - coords[cols]
    dist_sq = np.sum(diff * diff, axis=1)
    return np.exp(-dist_sq / (2.0 * sigma**2))


def _gaussian_weights(spec: GraphSpec, rng: np.random.Generator) -> np.ndarray:
    """Random geometric graph with RBF weights, thresholded."""
    w = rbf_weights(rng.random((spec.m, 2)), spec.sigma)
    return np.where(w >= spec.threshold, w, 0.0)


def _er_weights(spec: GraphSpec, rng: np.random.Generator) -> np.ndarray:
    """Independent unit-weight edges with probability p."""
    return (rng.random(edge_count(spec.m)) < spec.p).astype(float)


def _pa_weights(spec: GraphSpec, rng: np.random.Generator) -> np.ndarray:
    """Preferential attachment with unit weights.

    The urn holds one token per edge endpoint, so drawing uniformly from it
    is degree-proportional sampling.  Each arrival redraws until it has
    theta distinct targets, then its edges join the urn.
    """
    edges = [(t, t - 1) for t in range(1, spec.theta0)]  # 0-based path seed
    urn = [node for e in edges for node in e]
    for arrival in range(spec.theta0, spec.m):
        targets: set[int] = set()
        while len(targets) < spec.theta:
            targets.add(urn[rng.integers(len(urn))])
        for t in sorted(targets):
            edges.append((arrival, t))
            urn.extend((arrival, t))
    # every edge is (later node, earlier node), as pair_to_linear requires
    i, j = np.array(edges).T + 1
    w = np.zeros(edge_count(spec.m))
    w[pair_to_linear(i, j, spec.m) - 1] = 1.0
    return w


def gen_signals(L: np.ndarray, spec: SignalSpec) -> np.ndarray:
    """Sample n signals from N(mu_star, pinv(L) + epsilon^2 I), one per column.

    Latent factors are drawn in the eigenbasis of L with variance 1/lam for
    eigenvalues above RANK_TOL * lam_max and exactly zero otherwise, then
    rotated back and corrupted by isotropic noise, all from the signal
    stream of spec.seed.
    """
    L = np.asarray(L, dtype=float)
    m = L.shape[0]
    if L.shape != (m, m):
        raise ValueError(f"Laplacian must be square, got shape {L.shape}")
    if spec.mu_star is not None and len(spec.mu_star) != m:
        raise ValueError(f"mu_star has {len(spec.mu_star)} entries, expected {m}")
    rng = stream_rng(spec.seed, SIGNAL_STREAM)
    lam, U = np.linalg.eigh(L)
    lam_max = float(lam[-1])
    keep = lam > RANK_TOL * max(lam_max, 0.0)
    scale = np.zeros(m)
    scale[keep] = 1.0 / np.sqrt(lam[keep])
    latent = scale[:, None] * rng.standard_normal((m, spec.n))
    X = U @ latent
    if spec.mu_star is not None:
        X = X + np.asarray(spec.mu_star, dtype=float)[:, None]
    if spec.epsilon > 0:
        X = X + spec.epsilon * rng.standard_normal((m, spec.n))
    return X
