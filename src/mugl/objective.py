"""Worst-case Laplacian quadratic risk over a moment uncertainty region, as a
function of the edge-weight vector.

For moments (mean, cov) estimated from data, the adversary may move the mean
anywhere in an L-ellipsoid of radius rho1 around the estimate and the
covariance anywhere in a Frobenius ball of radius rho2 (intersected with the
PSD cone).  Both inner maximizations have closed forms:

    sup over means:        (sqrt(mean @ L @ mean) + rho1)^2
    sup over covariances:  trace(cov @ L) + rho2 * ||L||_F

attained at a rescaled lift of the mean and at cov + rho2 * L / ||L||_F.
Dropping the constant rho1^2 and writing L = expand(w, m) gives the objective
actually minimized over the simplex:

    g(w) = w @ quad_coeff + rho2 * ||expand(w, m)||_F + sqrt(a @ w) + h(expand(w, m))

with quad_coeff = adjoint(cov + outer(mean, mean)) and
a_k = 4 rho1^2 (mean_i - mean_j)^2 >= 0.  h is an optional penalty: a
log-barrier -alpha * sum(log(degrees)) that forces every node to keep
positive degree, and/or a squared off-diagonal penalty used by the
non-robust log-degree model.

g is convex only when rho1 = 0.  a @ w is linear in w, so sqrt(a @ w) is
concave, and for rho1 > 0 g is a difference of convex functions.  g is not
smooth where a @ w = 0; gradient() refuses to evaluate there rather than
returning garbage, and callers are expected to treat that as a hard stop.

Value and gradient at one w share three pieces: the node degrees, ||expand(w, m)||_F
(when rho2 > 0) and a @ w (when rho1 > 0).  point(ctx, w) computes them once
as a per-point record, and the unchecked evaluators _value(ctx, w, pt) and
_gradient(ctx, w, pt) read them from it, so a solver that evaluates a point
and later its gradient builds the record once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laplacian import adjoint, degrees, pair_indices, pair_sums, validate_simplex
from .moments import EmpiricalMoments

# The square-root term counts as nonsmooth where a @ w falls at or below this
# fraction of max(a) * s.
SQRT_FLOOR = 1e-12


class InfeasiblePointError(ValueError):
    """Evaluation requested outside the weight simplex."""


class NonsmoothPointError(RuntimeError):
    """Gradient requested where the square-root term is not differentiable."""


class BarrierDomainError(RuntimeError):
    """Gradient requested where some degree is outside the log-barrier domain."""


@dataclass(frozen=True)
class ModelConfig:
    """Objective hyperparameters.

    rho1, rho2: uncertainty radii for mean and covariance (0 disables).
    s: simplex scale, i.e. half the Laplacian trace.
    alpha: weight of the log-degree barrier (0 disables it).
    quad_weight: coefficient of the squared off-diagonal penalty
        (quad_weight / 2) * sum_{i != j} L_ij^2, used by the non-robust
        log-degree model; 0 disables it.
    """

    rho1: float = 0.0
    rho2: float = 0.0
    s: float = 1.0
    alpha: float = 0.0
    quad_weight: float = 0.0

    def __post_init__(self):
        if not (self.rho1 >= 0 and self.rho2 >= 0):
            raise ValueError(f"radii must be nonnegative, got rho1={self.rho1}, rho2={self.rho2}")
        if not self.s > 0:
            raise ValueError(f"simplex scale must be positive, got s={self.s}")
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if not self.quad_weight >= 0:
            raise ValueError(f"quad_weight must be nonnegative, got {self.quad_weight}")


@dataclass(frozen=True)
class ObjectiveContext:
    """Config and the precomputed pair-space coefficient vectors."""

    config: ModelConfig
    m: int
    quad_coeff: np.ndarray  # adjoint(cov + outer(mean, mean))
    sqrt_coeff: np.ndarray  # a = 4 rho1^2 * mean_gap_sq
    sqrt_floor: float  # SQRT_FLOOR * max(a) * s, the nonsmooth threshold of a @ w

    @property
    def n_pairs(self) -> int:
        return self.quad_coeff.size


def build_context(moments: EmpiricalMoments, config: ModelConfig) -> ObjectiveContext:
    """Precompute the pair-space coefficients of the objective.

    The quadratic coefficient folds mean and covariance together through the
    adjoint map; the square-root coefficient a uses the squared mean gaps
    directly, which keeps it exactly nonnegative.
    """
    mean = np.asarray(moments.mean, dtype=float)
    cov = np.asarray(moments.cov, dtype=float)
    m = mean.size
    if cov.shape != (m, m):
        raise ValueError(f"covariance shape {cov.shape} does not match mean size {m}")
    if m < 2:
        raise ValueError(f"need at least two nodes, got m={m}")
    rows, cols = pair_indices(m)
    gaps = mean[rows] - mean[cols]
    mean_gap_sq = gaps * gaps
    # adjoint(cov + outer(mean)) splits into adjoint(cov) + mean_gap_sq; the
    # covariance part is the variance of the pairwise signal difference.
    quad_coeff = adjoint(cov) + mean_gap_sq
    sqrt_coeff = 4.0 * config.rho1**2 * mean_gap_sq
    for arr in (quad_coeff, sqrt_coeff):
        arr.flags.writeable = False
    sqrt_floor = SQRT_FLOOR * float(np.maximum.reduce(sqrt_coeff)) * config.s
    return ObjectiveContext(
        config=config, m=m, quad_coeff=quad_coeff, sqrt_coeff=sqrt_coeff, sqrt_floor=sqrt_floor
    )


def _check_feasible(ctx: ObjectiveContext, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.size != ctx.n_pairs:
        raise InfeasiblePointError(
            f"weight vector has {w.size} entries, expected {ctx.n_pairs}"
        )
    if not validate_simplex(w, ctx.config.s):
        raise InfeasiblePointError(
            f"w outside the scale-{ctx.config.s} simplex "
            f"(sum={w.sum():.6g}, min={w.min():.6g})"
        )
    return w


def point(ctx: ObjectiveContext, w: np.ndarray) -> tuple:
    """The per-point record (deg, frob, aw) of a feasible float array w.

    deg is degrees(w, ctx.m); frob is ||expand(w, m)||_F when rho2 > 0 and aw
    is a @ w when rho1 > 0, each None when its term is off.
    """
    cfg = ctx.config
    deg = degrees(w, ctx.m)
    # ||expand(w, m)||_F^2 = sum(deg^2) + 2 sum(w^2), no matrix needed.
    frob = math.sqrt(float(deg @ deg + 2.0 * (w @ w))) if cfg.rho2 > 0 else None
    aw = float(ctx.sqrt_coeff @ w) if cfg.rho1 > 0 else None
    return deg, frob, aw


def objective_value(ctx: ObjectiveContext, w: np.ndarray) -> float:
    """g(w), the worst-case risk minus its constant rho1^2 offset.

    Returns +inf when the log-barrier is active and some degree is
    nonpositive; that is the extended-value convention line searches rely on.
    Raises InfeasiblePointError outside the simplex.
    """
    w = _check_feasible(ctx, w)
    return _value(ctx, w, point(ctx, w))


def gradient(ctx: ObjectiveContext, w: np.ndarray) -> np.ndarray:
    """Gradient of g at a feasible w.

    The square-root term contributes a / (2 sqrt(a @ w)); when a @ w falls at
    or below ctx.sqrt_floor = SQRT_FLOOR * max(a) * s this raises
    NonsmoothPointError, which also catches the degenerate constant-mean
    case where a vanishes identically.  The log-barrier contributes
    -alpha (1/deg_i + 1/deg_j) per pair and raises BarrierDomainError off
    its domain.
    """
    w = _check_feasible(ctx, w)
    return _gradient(ctx, w, point(ctx, w))


# _value and _gradient are the unchecked evaluators behind objective_value
# and gradient: w must be a float array already known to be feasible, and
# pt must be point(ctx, w).  A solver that checked its start evaluates each
# later point through them, passing one record to both.


def _value(ctx: ObjectiveContext, w: np.ndarray, pt: tuple) -> float:
    deg, frob, aw = pt
    cfg = ctx.config
    val = float(w @ ctx.quad_coeff)
    if cfg.rho2 > 0:
        val += cfg.rho2 * frob
    if cfg.rho1 > 0:
        val += math.sqrt(max(aw, 0.0))
    if cfg.quad_weight > 0:
        # (quad_weight/2) * sum_{i!=j} L_ij^2 counts each pair twice.
        val += cfg.quad_weight * float(w @ w)
    if cfg.alpha > 0:
        if np.minimum.reduce(deg) <= 0.0:
            return math.inf
        val -= cfg.alpha * float(np.add.reduce(np.log(deg)))
    return val


def _gradient(ctx: ObjectiveContext, w: np.ndarray, pt: tuple) -> np.ndarray:
    deg, frob, aw = pt
    cfg = ctx.config
    grad = ctx.quad_coeff.copy()
    term = np.empty_like(grad)  # each pair-space term, added in a fixed order
    if cfg.rho1 > 0:
        if aw <= ctx.sqrt_floor:
            raise NonsmoothPointError(
                f"square-root term nonsmooth: a @ w = {aw:.3g} at or below the "
                f"floor {SQRT_FLOOR:.3g} * max(a) * s"
            )
        grad += np.divide(ctx.sqrt_coeff, 2.0 * math.sqrt(aw), out=term)
    # The degree-dependent terms are pair sums d_i + d_j of one node vector d,
    # so they share a single pair_sums call.  The first of them starts d.
    node_coeff = None
    if cfg.rho2 > 0:
        scale = cfg.rho2 / frob
        # adjoint(expand(w, m)) = deg_i + deg_j + 2 w_k per pair.
        grad += np.multiply(2.0 * scale, w, out=term)
        node_coeff = scale * deg
    if cfg.quad_weight > 0:
        grad += np.multiply(2.0 * cfg.quad_weight, w, out=term)
    if cfg.alpha > 0:
        min_deg = np.minimum.reduce(deg)
        if min_deg <= 0.0:
            raise BarrierDomainError(f"log-barrier domain violated: min degree {min_deg:.3g} <= 0")
        # -alpha * (1/deg_i + 1/deg_j) per pair.  (-alpha) / d is -(alpha / d)
        # and x + (-y) is x - y, both exactly.
        barrier = np.divide(-cfg.alpha, deg)
        if node_coeff is None:
            node_coeff = barrier
        else:
            node_coeff += barrier
    if node_coeff is not None:
        grad += pair_sums(node_coeff)
    return grad


def worst_case_mean_risk(L: np.ndarray, mean: np.ndarray, rho1: float) -> float:
    """sup of mu @ L @ mu over the rho1-ellipsoid of means around the estimate.

    Closed form (sqrt(mean @ L @ mean) + rho1)^2; the quadratic form is
    clamped at zero before the square root to absorb round-off on the PSD
    cone boundary.
    """
    if rho1 < 0:
        raise ValueError(f"rho1 must be nonnegative, got {rho1}")
    q = float(np.asarray(mean) @ np.asarray(L) @ np.asarray(mean))
    return (math.sqrt(max(q, 0.0)) + rho1) ** 2


def worst_case_cov_risk(L: np.ndarray, cov: np.ndarray, rho2: float) -> float:
    """sup of trace(S @ L) over the rho2 Frobenius ball of covariances.

    Closed form trace(cov @ L) + rho2 * ||L||_F, attained at
    cov + rho2 * L / ||L||_F (which stays PSD because L is).
    """
    if rho2 < 0:
        raise ValueError(f"rho2 must be nonnegative, got {rho2}")
    L = np.asarray(L, dtype=float)
    return float(np.sum(np.asarray(cov) * L)) + rho2 * float(np.linalg.norm(L))

