"""Model presets and the seeded benchmark loop.

PRESETS is the model family, one row per preset name: whether the preset
is robust (it takes rho1 and rho2 explicitly or, by default, from the
radius formulas at confidence level delta, with the sample covariance's
spectral norm plugged in; otherwise both are 0), and whether it reads
alpha (the log-degree barrier) and quad_weight (the squared off-diagonal
penalty).  The simplex scale is tied to the node count (s = m), matching
how the synthetic benchmarks are run.  Every resolved config is fitted by
solvers.ls_pgd_solve from solvers.start_point, which is the best vertex of
a config with no convex term (vsgl, or mugl_o at rho2 = 0) and the
centroid otherwise.

run_experiment draws (graph, signals) pairs from per-run child seeds of a
master seed, learns every preset on every draw, scores edge recovery
against the generating graph, aggregates mean and normalized standard
deviation per model and metric, and returns the summary.json document.  A
solver failure on one draw is recorded and skipped, never fatal.  Results
are deterministic functions of the master seed, also under seed threads.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import __version__, solvers
from .datagen import GraphSpec, SignalSpec, gen_graph, gen_signals
from .evaluation import DEFAULT_REL_THRESHOLD, check_threshold, metric_record
from .moments import EmpiricalMoments, RadiusParams, empirical_moments, rho1_radius, rho2_radius
from .objective import ModelConfig, build_context


class PresetRow(NamedTuple):
    """What a preset reads: the radii (robust), alpha, quad_weight."""

    robust: bool
    alpha: bool
    quad_weight: bool


PRESETS = {
    "mugl_o": PresetRow(robust=True, alpha=False, quad_weight=False),
    "mugl_l": PresetRow(robust=True, alpha=True, quad_weight=False),
    "vsgl": PresetRow(robust=False, alpha=False, quad_weight=False),
    "log_model": PresetRow(robust=False, alpha=True, quad_weight=True),
}
PRESET_NAMES = tuple(PRESETS)
SUMMARY_METRICS = ("precision", "recall", "f_measure", "nmi")

DEFAULT_ALPHA = 0.5
DEFAULT_QUAD_WEIGHT = 0.5


@dataclass(frozen=True)
class ModelPreset:
    """A named model with its radii source, penalties, and solver options.

    PRESETS[name] says which fields the preset reads; a field it never
    reads must keep its default (non-robust presets accept explicit zero
    radii).  rho1/rho2 left as None means take it from the radius formulas
    at radius_params.delta.  alpha must be > 0 and quad_weight >= 0.  label
    distinguishes multiple presets of the same name in one experiment,
    e.g. a grid over alpha; left as None it becomes the name.
    """

    name: str
    label: str | None = None
    rho1: float | None = None
    rho2: float | None = None
    radius_params: RadiusParams = field(default_factory=RadiusParams)
    alpha: float = DEFAULT_ALPHA
    quad_weight: float = DEFAULT_QUAD_WEIGHT
    solver: solvers.SolverOptions = field(default_factory=solvers.SolverOptions)

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}, expected one of {PRESET_NAMES}")
        if self.label is None:
            object.__setattr__(self, "label", self.name)
        row = PRESETS[self.name]
        if not row.robust:
            for radius in (self.rho1, self.rho2):
                if radius is not None and radius != 0.0:
                    raise ValueError(f"{self.name} is non-robust; radii must be 0 or omitted")
            if self.radius_params != RadiusParams():
                raise ValueError(f"{self.name} is non-robust; radius_params must be omitted")
        if not row.alpha and self.alpha != DEFAULT_ALPHA:
            raise ValueError(f"{self.name} has no barrier; alpha must be omitted")
        if not self.alpha > 0:
            raise ValueError(f"{self.name}'s log-degree barrier needs alpha > 0, got {self.alpha}")
        if not row.quad_weight and self.quad_weight != DEFAULT_QUAD_WEIGHT:
            readers = ", ".join(name for name, r in PRESETS.items() if r.quad_weight)
            raise ValueError(f"only {readers} reads quad_weight; omit it for {self.name}")
        if not self.quad_weight >= 0:
            raise ValueError(f"quad_weight must be nonnegative, got {self.quad_weight}")
        for radius in (self.rho1, self.rho2):
            if radius is not None and not radius >= 0:
                raise ValueError(f"radii must be nonnegative, got {radius}")

    @property
    def uses_barrier(self) -> bool:
        """True when the preset reads alpha, i.e. its objective has the barrier."""
        return PRESETS[self.name].alpha


def resolve_config(preset: ModelPreset, moments: EmpiricalMoments, m: int) -> ModelConfig:
    """Concrete objective config for this preset on this data (s = m)."""
    row = PRESETS[preset.name]
    if not row.robust:
        rho1 = rho2 = 0.0
    else:
        params = preset.radius_params
        rho1 = preset.rho1 if preset.rho1 is not None else rho1_radius(params, moments.n)
        if preset.rho2 is not None:
            rho2 = preset.rho2
        else:
            # only the covariance radius reads sigma, so only it takes an
            # eigenvalue; the floor keeps constant signals' scale positive
            sigma = max(float(np.linalg.eigvalsh(moments.cov)[-1]), np.finfo(float).tiny)
            rho2 = rho2_radius(params, sigma, m, moments.n)
    return ModelConfig(
        rho1=rho1,
        rho2=rho2,
        s=float(m),
        alpha=preset.alpha if row.alpha else 0.0,
        quad_weight=preset.quad_weight if row.quad_weight else 0.0,
    )


def learn(preset: ModelPreset, X: np.ndarray) -> tuple[ModelConfig, solvers.SolveReport]:
    """Fit the preset to signals X and return (resolved config, solve report).

    The learned weights sit in report.w_final; their Laplacian
    expand(report.w_final, m) has trace 2m.
    """
    X = np.asarray(X, dtype=float)
    m = X.shape[0]
    moments = empirical_moments(X)
    config = resolve_config(preset, moments, m)
    ctx = build_context(moments, config)
    return config, solvers.ls_pgd_solve(ctx, solvers.start_point(ctx), preset.solver)


def run_seeds(master_seed: int, n_seeds: int) -> list[tuple[int, int]]:
    """Per-run (graph_seed, signal_seed) pairs derived from the master seed.

    Run r spawns child entropy via SeedSequence(master_seed, spawn_key=(r,)),
    so runs are independent and any prefix of the schedule is stable when
    n_seeds grows.
    """
    if master_seed < 0:
        raise ValueError(f"master seed must be nonnegative, got {master_seed}")
    pairs = []
    for r in range(n_seeds):
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(r,))
        g, s = ss.generate_state(2, dtype=np.uint64)
        pairs.append((int(g), int(s)))
    return pairs


def _run_one(
    graph_spec: GraphSpec,
    signal_spec: SignalSpec,
    presets: tuple[ModelPreset, ...],
    rel_threshold: float,
    seed_index: int,
    graph_seed: int,
    signal_seed: int,
) -> dict:
    graph = gen_graph(replace(graph_spec, seed=graph_seed))
    X = gen_signals(graph.laplacian, replace(signal_spec, seed=signal_seed))
    truth_mask = graph.weights > 0
    record = {
        "seed_index": seed_index,
        "graph_seed": graph_seed,
        "signal_seed": signal_seed,
        "n_edges_true": graph.n_edges,
        "connected": graph.connected,
        "models": {},
    }
    for preset in presets:
        try:
            _, report = learn(preset, X)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            record["models"][preset.label] = {"error": str(exc)}
            continue
        entry = metric_record(report.w_final, truth_mask, rel_threshold)
        entry.update(report.record())
        record["models"][preset.label] = entry
    return record


def run_experiment(
    graph_spec: GraphSpec,
    signal_spec: SignalSpec,
    presets,
    n_seeds: int,
    master_seed: int = 0,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    threads: int = 1,
) -> dict:
    """Generate, learn, and score n_seeds independent draws into the
    summary.json document.  threads > 1 runs whole seeds concurrently;
    results are merged in seed order, so the output is the sequential run's.
    """
    presets = tuple(presets)
    if not presets:
        raise ValueError("need at least one preset")
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got n_seeds={n_seeds}")
    check_threshold(rel_threshold)
    labels = [p.label for p in presets]
    if len(set(labels)) != len(labels):
        raise ValueError(f"preset labels must be unique, got {labels}")
    seeds = run_seeds(master_seed, n_seeds)
    jobs = [
        (graph_spec, signal_spec, presets, rel_threshold, r, g, s)
        for r, (g, s) in enumerate(seeds)
    ]
    if threads > 1:
        # imported here: it and the logging it loads cost every process
        # start several ms, and only a threaded bench uses them
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda args: _run_one(*args), jobs))
    else:
        records = [_run_one(*args) for args in jobs]
    failures = [
        {"seed_index": rec["seed_index"], "model": label, "error": entry["error"]}
        for rec in records
        for label, entry in rec["models"].items()
        if "error" in entry
    ]
    return {
        "version": __version__,
        "graph_spec": asdict(graph_spec),
        "signal_spec": asdict(signal_spec),
        "presets": [asdict(p) for p in presets],
        "n_seeds": n_seeds,
        "master_seed": master_seed,
        "rel_threshold": rel_threshold,
        "records": records,
        "failures": failures,
        "stats": summarize(records, labels),
    }


def summarize(records: list[dict], labels) -> list[dict]:
    """Mean and normalized std (population, as percent of the mean) per
    model and metric, over the seeds where that model succeeded.  n_capped
    counts how many of those fits stopped at the iteration cap, and
    n_uncertified how many returned a kkt_residual above tol_kkt."""
    stats = []
    for label in labels:
        values = {metric: [] for metric in SUMMARY_METRICS}
        n_capped = n_uncertified = 0
        for rec in records:
            entry = rec["models"].get(label)
            if entry is None or "error" in entry:
                continue
            for metric in SUMMARY_METRICS:
                values[metric].append(entry[metric])
            n_capped += entry["termination"] == "max_iters"
            n_uncertified += not entry["certified"]
        for metric in SUMMARY_METRICS:
            vals = np.array(values[metric], dtype=float)
            if vals.size:
                mean = float(vals.mean())
                spread = 100.0 * float(vals.std()) / mean if mean != 0.0 else 0.0
            else:
                mean, spread = 0.0, 0.0
            stats.append(
                {
                    "model": label,
                    "metric": metric,
                    "mean": mean,
                    "normalized_std_percent": spread,
                    "n_seeds": int(vals.size),
                    "n_capped": n_capped,
                    "n_uncertified": n_uncertified,
                }
            )
    return stats


def format_float(x: float) -> str:
    """%.17g with a guaranteed decimal point or exponent, so the token reads
    back as a float: the fixed spelling of the summary CSV."""
    text = "%.17g" % x
    if "." in text or "e" in text:
        return text
    # only inf, -inf and nan print with an "n"
    if "n" in text:
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return text + ".0"


def write_summary_csv(path, stats: list[dict]) -> None:
    """Aggregate table: one row per model and metric, from the summary's stats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "metric", "mean", "normalized_std_percent", "n_seeds"])
        for row in stats:
            writer.writerow(
                [
                    row["model"],
                    row["metric"],
                    format_float(row["mean"]),
                    format_float(row["normalized_std_percent"]),
                    row["n_seeds"],
                ]
            )
