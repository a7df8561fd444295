"""Workload definitions, one measured pass of each, and the correctness gate.

Every workload drives mugl through ``mugl.cli.main`` in-process, closed-loop:
one caller waits for each operation before starting the next.

* headline: ``mugl bench`` on Gaussian-RBF graphs, m=20, n=80, eps=0.1, all
  four presets, 20 seeds, --threads 1.  An operation is one harness.learn fit.
* scale: the same loop at m=300, n=1200, presets mugl_l and log_model, one
  seed.  An operation is one harness.learn fit.
* cli_pipeline: per draw, ``mugl generate`` (ER, m=100, n=400), ``mugl learn``
  (log_model, trace on) and ``mugl eval``, each draw in its own output
  directory.  An operation is one generate -> learn -> eval draw.

A pass runs the workload's whole input set once.  Passes of one seed must
produce byte-identical files; the first pass is also checked semantically by
``check_fit`` and, for the pipeline, by reading learned.edges back.  The
pipeline's pass time is the sum of its draw times, so that check is not
timed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from mugl import cli, harness, laplacian, objective, solvers
from mugl.moments import empirical_moments

from layertrace import patch_everywhere, unpatch

WORKLOADS = ("headline", "scale", "cli_pipeline")

# (graph section, signals section, preset names, seeds per pass)
BENCH_SHAPES = {
    "headline": (
        {"family": "gaussian", "m": 20},
        {"n": 80, "epsilon": 0.1},
        harness.PRESET_NAMES,
        20,
    ),
    "scale": (
        {"family": "gaussian", "m": 300},
        {"n": 1200, "epsilon": 0.1},
        ("mugl_l", "log_model"),
        1,
    ),
}
PIPELINE_SHAPE = ({"family": "er", "m": 100}, {"n": 400, "epsilon": 0.1}, "log_model", 60)

# Toy sizes for the self-test: same code paths, a fraction of a second each.
TOY_BENCH_SHAPES = {
    "headline": ({"family": "gaussian", "m": 8}, {"n": 40, "epsilon": 0.1}, harness.PRESET_NAMES, 2),
    "scale": ({"family": "gaussian", "m": 30}, {"n": 120, "epsilon": 0.1}, ("mugl_l", "log_model"), 1),
}
TOY_PIPELINE_SHAPE = ({"family": "er", "m": 12}, {"n": 60, "epsilon": 0.1}, "log_model", 3)
TOY_MAX_ITERS = 300

# Presets left out of f_mean: vsgl's F only shows how far the fixed-step
# solver stops from vsgl's one-edge optimum.
F_EXCLUDED = ("vsgl",)

OK, CAPPED, FAILED = "ok", "capped", "failed"


class GateError(Exception):
    """The program's output failed the benchmark's correctness gate."""


@dataclass
class Fit:
    """One harness.learn call seen by FitRecorder.

    The solve report itself is not kept: its objective trace would add the
    benchmark's own memory to the peak RSS it measures.  ``release`` drops
    the signals and weights once they are checked, keeping a digest.
    """

    preset: object
    X: np.ndarray | None
    seconds: float
    termination: str | None = None  # None when learn raised
    iters: int = 0
    accepted: int = 0  # accepted steps: objective trace length minus one
    line_search: bool = False  # solved by ls_pgd_solve
    w: np.ndarray | None = None
    w_digest: str = ""

    def release(self) -> None:
        if self.w is not None:
            self.w_digest = hashlib.sha256(np.ascontiguousarray(self.w).tobytes()).hexdigest()
        self.X = self.w = None


@dataclass
class Pass:
    """What one pass of a workload produced."""

    wall_s: float
    spans: list  # (start, end) perf_counter readings of the timed stretches
    latencies: list  # seconds per operation
    statuses: list  # OK / CAPPED / FAILED per operation
    f_values: list  # F-measures counted in f_mean
    fits: list  # Fit per harness.learn call
    fingerprint: str  # sha256 of every output byte of the pass
    traced: bool = False


@dataclass(frozen=True)
class Plan:
    """Inputs of a workload, prepared before the first timed operation."""

    workload: str
    seed: int
    workdir: str
    configs: dict  # role -> config path
    draw_seeds: tuple = ()


class FitRecorder:
    """Times every harness.learn call and keeps its inputs and outcome.

    Installed at the module attributes callers look up, like the tracer's
    wrappers, so both ``harness._run_one`` and ``cli.cmd_learn`` are seen.
    """

    def __init__(self):
        self.fits: list[Fit] = []
        self._patched = []

    def install(self):
        original = harness.learn
        fits = self.fits
        clock = time.perf_counter

        @functools.wraps(original)
        def learn(preset, X):
            start = clock()
            try:
                result = original(preset, X)
            except Exception:
                fits.append(Fit(preset, X, clock() - start))
                raise
            seconds = clock() - start
            report = result[1]
            fits.append(Fit(preset, X, seconds, report.termination, report.iters,
                            accepted=len(report.objective_trace) - 1,
                            line_search=bool(preset.uses_barrier), w=report.w_final))
            return result

        self._patched = patch_everywhere(original, learn)

    def uninstall(self):
        unpatch(self._patched)
        self._patched = []


def fit_status(fit: Fit) -> str:
    """A fit fails when it raises or aborts; ending at max_iters is capped."""
    if fit.termination is None or fit.termination == "nonsmooth_abort":
        return FAILED
    if fit.termination == "max_iters":
        return CAPPED
    return OK


def check_fit(fit: Fit) -> None:
    """Correctness gate for one fit that returned.

    The termination must be a known one, the weights must lie on the
    scale-m simplex, and the objective must be finite there.
    """
    if fit.termination not in solvers.TERMINATIONS:
        raise GateError(f"unknown termination {fit.termination!r}")
    m = fit.X.shape[0]
    w = np.asarray(fit.w, dtype=float)
    if w.shape != (laplacian.edge_count(m),) or not laplacian.validate_simplex(w, float(m)):
        raise GateError(
            f"{fit.preset.name}: weights off the scale-{m} simplex "
            f"(size {w.size}, sum {w.sum():.17g}, min {w.min():.3g})"
        )
    moments = empirical_moments(fit.X)
    ctx = objective.build_context(moments, harness.resolve_config(fit.preset, moments, m))
    value = objective.objective_value(ctx, w)
    if not math.isfinite(value):
        raise GateError(f"{fit.preset.name}: objective not finite at the learned weights")


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def prepare(workload: str, seed: int, workdir: str, toy: bool = False) -> Plan:
    """Write the workload's config files; nothing here is timed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    os.makedirs(workdir, exist_ok=True)
    solver = {"max_iters": TOY_MAX_ITERS} if toy else None
    if workload in BENCH_SHAPES:
        graph, signals, presets, n_seeds = (TOY_BENCH_SHAPES if toy else BENCH_SHAPES)[workload]
        config = {
            "graph": graph,
            "signals": signals,
            "presets": [dict(name=p, **({"solver": solver} if solver else {})) for p in presets],
            "n_seeds": n_seeds,
        }
        return Plan(workload, seed, workdir, {"bench": _write_json(os.path.join(workdir, "bench.json"), config)})

    graph, signals, preset, n_draws = TOY_PIPELINE_SHAPE if toy else PIPELINE_SHAPE
    draw_seeds = tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(n_draws))
    configs = {"generate": _write_json(os.path.join(workdir, "generate.json"), {"graph": graph, "signals": signals})}
    preset_doc = dict(name=preset, **({"solver": solver} if solver else {}))
    for d in range(n_draws):
        draw_dir = os.path.join(workdir, "draws", f"d{d:03d}")
        configs[f"learn{d}"] = _write_json(
            os.path.join(workdir, f"learn{d}.json"),
            {"signals": os.path.join(draw_dir, cli.SIGNALS_FILE), "preset": preset_doc, "trace": True},
        )
        configs[f"eval{d}"] = _write_json(
            os.path.join(workdir, f"eval{d}.json"),
            {
                "truth": os.path.join(draw_dir, cli.GRAPH_FILE),
                "predicted": os.path.join(draw_dir, cli.LEARNED_FILE),
            },
        )
    return Plan(workload, seed, workdir, configs, draw_seeds)


def _fingerprint(root: str, extra: str = "") -> str:
    digest = hashlib.sha256(extra.encode())
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_pass(plan: Plan, recorder: FitRecorder, check: bool) -> Pass:
    """Run the whole input set once; the recorder must be installed.

    With `check` the semantic gate runs on every fit, outside the timed
    operations.  Signal matrices are dropped once checked, so the gate adds
    nothing to the peak memory of later passes.
    """
    if plan.workload in BENCH_SHAPES:
        return _bench_pass(plan, recorder, check)
    return _pipeline_pass(plan, recorder, check)


def _bench_pass(plan: Plan, recorder: FitRecorder, check: bool) -> Pass:
    out = os.path.join(plan.workdir, "out")
    shutil.rmtree(out, ignore_errors=True)
    first_fit = len(recorder.fits)
    argv = ["bench", "--config", plan.configs["bench"], "--seed", str(plan.seed),
            "--out", out, "--threads", "1", "--quiet"]
    start = time.perf_counter()
    code = cli.main(argv)
    end = time.perf_counter()
    if code != cli.EXIT_OK:
        raise GateError(f"mugl bench exited {code}")
    fits = recorder.fits[first_fit:]
    for fit in fits:
        if check and fit.termination is not None:
            check_fit(fit)
        fit.release()
    with open(os.path.join(out, cli.SUMMARY_JSON)) as fh:
        summary = json.load(fh)
    f_values = [
        entry["f_measure"]
        for rec in summary["records"]
        for label, entry in rec["models"].items()
        if "error" not in entry and entry["termination"] != "max_iters" and label not in F_EXCLUDED
    ]
    return Pass(
        wall_s=end - start,
        spans=[(start, end)],
        latencies=[f.seconds for f in fits],
        statuses=[fit_status(f) for f in fits],
        f_values=f_values,
        fits=fits,
        fingerprint=_fingerprint(out),
    )


def _pipeline_pass(plan: Plan, recorder: FitRecorder, check: bool) -> Pass:
    draws_root = os.path.join(plan.workdir, "draws")
    shutil.rmtree(draws_root, ignore_errors=True)
    clock = time.perf_counter
    spans, statuses, f_values, fits, eval_texts = [], [], [], [], []
    for d, draw_seed in enumerate(plan.draw_seeds):
        draw_dir = os.path.join(draws_root, f"d{d:03d}")
        n_fits = len(recorder.fits)
        buf = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(buf):
            c_gen = cli.main(["generate", "--config", plan.configs["generate"],
                              "--seed", str(draw_seed), "--out", draw_dir, "--quiet"])
            c_learn = cli.main(["learn", "--config", plan.configs[f"learn{d}"],
                                "--out", draw_dir, "--quiet"])
            c_eval = cli.main(["eval", "--config", plan.configs[f"eval{d}"],
                               "--out", draw_dir, "--quiet"])
        spans.append((start, clock()))

        if c_gen != cli.EXIT_OK or c_learn not in (cli.EXIT_OK, cli.EXIT_MAX_ITERS) or c_eval != cli.EXIT_OK:
            raise GateError(f"draw {d}: exit codes generate={c_gen} learn={c_learn} eval={c_eval}")
        if len(recorder.fits) != n_fits + 1:
            raise GateError(f"draw {d}: expected one fit, saw {len(recorder.fits) - n_fits}")
        fit = recorder.fits[-1]
        if check:
            check_fit(fit)
            w, m = laplacian.read_edge_list(os.path.join(draw_dir, cli.LEARNED_FILE))
            if m != fit.X.shape[0] or not np.array_equal(w, fit.w):
                raise GateError(f"draw {d}: {cli.LEARNED_FILE} does not read back to the learned weights")
        fit.release()
        fits.append(fit)
        text = buf.getvalue()
        eval_texts.append(text)
        statuses.append(OK if c_learn == cli.EXIT_OK else CAPPED)
        if c_learn == cli.EXIT_OK:
            f_values.append(json.loads(text)["f_measure"])
    latencies = [end - start for start, end in spans]
    return Pass(
        wall_s=sum(latencies),
        spans=spans,
        latencies=latencies,
        statuses=statuses,
        f_values=f_values,
        fits=fits,
        fingerprint=_fingerprint(draws_root, "".join(eval_texts)),
    )


def check_repeat(first: Pass, result: Pass) -> None:
    """A later pass of the same seed must reproduce the first one exactly."""
    if result.fingerprint != first.fingerprint:
        raise GateError("output files differ between two passes of one seed")
    if len(result.fits) != len(first.fits):
        raise GateError("fit count differs between two passes of one seed")
    for a, b in zip(first.fits, result.fits):
        if (a.termination, a.w_digest) != (b.termination, b.w_digest):
            raise GateError("learned weights differ between two passes of one seed")
