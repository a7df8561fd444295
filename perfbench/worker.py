"""Run one workload in this process and print its result.

Started by run.py in a fresh process whose BLAS and OpenMP thread counts are
already pinned to 1 and whose PYTHONPATH holds the checkout's ``src``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --setup-only --workload NAME --seed N --workdir DIR

Passes repeat until ``--seconds`` have elapsed, and at least two run, so the
determinism check always has a second pass of the same seed to compare.
With --trace 1 the passes alternate untraced / traced; the per-layer numbers
are averages over the traced passes and the tracing overhead is the median
traced pass minus the median untraced pass.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (setup_s is added by run.py).  A run that fails the correctness gate
prints no result and exits 1.  --setup-only prepares the inputs, prints
"ready", then the speed factor of speedprobe.py measured right after, and
exits; run.py times the "ready" line as the set-up cost.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import mugl

import workloads
from layertrace import LayerTracer
from speedprobe import SpeedProbe

# Functions the per-layer table lists by name.  A function that a later
# version of mugl no longer defines is listed as absent.
TABLE_FUNCTIONS = (
    "solvers.project_simplex",
    "objective.objective_value",
    "objective.gradient",
    "laplacian.validate_simplex",
    "solvers.pgd_solve",
    "solvers.ls_pgd_solve",
    "moments.read_signals_csv",
    "moments.write_signals_csv",
    "laplacian.read_edge_list",
    "laplacian.write_edge_list",
    "serialize.write_json",
    "cli.main",
    "datagen.gen_graph",
    "datagen.gen_signals",
    "moments.empirical_moments",
    "moments.calibrated",
    "evaluation.metric_record",
    "objective.build_context",
    "harness.learn",
)

# (function, stats) pairs emitted as per-layer metrics in the JSON result.
JSON_FUNCTION_STATS = (
    ("solvers.project_simplex", ("calls", "us_per_call", "self_s")),
    ("objective.objective_value", ("calls", "us_per_call", "total_s", "self_s")),
    ("objective.gradient", ("calls", "us_per_call", "total_s", "self_s")),
    ("laplacian.validate_simplex", ("calls", "self_s")),
    ("solvers.ls_pgd_solve", ("self_s",)),
    ("solvers.pgd_solve", ("calls",)),
)
STAT_UNITS = {"calls": "count", "us_per_call": "us", "total_s": "s", "self_s": "s"}


def environment() -> dict:
    """Versions, core count and thread settings recorded with every result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "mugl": mugl.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def measure(plan, seconds: float, trace: bool, probe: SpeedProbe | None):
    """Run passes until `seconds` have elapsed (at least two), checking each."""
    recorder = workloads.FitRecorder()
    tracer = LayerTracer(pair=("solvers.ls_pgd_solve", "objective.objective_value"))
    passes = []
    start = time.perf_counter()
    if probe is not None:
        probe.start()
    try:
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            passes.append(one_pass(plan, recorder, tracer, passes, trace and len(passes) % 2 == 1))
    finally:
        if probe is not None:
            probe.stop()
    return passes, tracer


def one_pass(plan, recorder, tracer, passes, traced: bool):
    """One pass, checked on the first pass and against it on later ones."""
    recorder.install()
    try:
        if traced:
            tracer.install()
        try:
            result = workloads.run_pass(plan, recorder, check=not passes)
        finally:
            tracer.uninstall()
    finally:
        recorder.uninstall()
    result.traced = traced
    if passes:
        workloads.check_repeat(passes[0], result)
    return result


def tail(latencies: list) -> tuple[float, float] | None:
    """Highest percentile with at least 10 operations beyond it, or None
    when there are fewer than 11 operations."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, probe: SpeedProbe) -> tuple[dict, dict]:
    """JSON metrics and the text-only figures of an untraced run.

    wall_s is the median over passes of the speed-adjusted pass time (see
    speedprobe.py); latency percentiles go to the text report only (see
    README.md).
    """
    latencies = [t for p in passes for t in p.latencies]
    statuses = [s for p in passes for s in p.statuses]
    n = len(statuses)
    failed = statuses.count(workloads.FAILED)
    capped = statuses.count(workloads.CAPPED)
    f_values = passes[0].f_values
    metrics = {
        "wall_s": (statistics.median(
            sum(probe.speed_adjusted(*span) for span in p.spans) for p in passes), "s"),
        "ok_frac": ((n - failed - capped) / n, "ratio"),
        "f_mean": (statistics.fmean(f_values) if f_values else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "ops": n,
        "references": sorted(r for _, _, r in probe.segments),
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": tail(latencies),
        "fail_frac": ((failed + capped) / n, failed + capped, n, failed, capped),
    }
    return metrics, extras


def per_layer(passes, tracer: LayerTracer) -> tuple[dict, dict]:
    """JSON per-layer metrics and the full function table of a traced run."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    k = len(traced)
    present = tracer.functions()

    def stat(key: str) -> dict | None:
        if key not in tracer.stats:
            return None
        calls, total, self_s, _ = tracer.stats[key]
        return {
            "calls": calls / k,
            "us_per_call": 1e6 * total / calls if calls else 0.0,
            "total_s": total / k,
            "self_s": self_s / k,
        }

    metrics = {}
    for key, names in JSON_FUNCTION_STATS:
        values = stat(key) or dict.fromkeys(STAT_UNITS, 0.0)
        for name in names:
            metrics[f"{key}.{name}"] = (values[name], STAT_UNITS[name])

    fits = [f for p in traced for f in p.fits if f.termination is not None]
    ls_fits = [f for f in fits if f.line_search]
    metrics["solvers.iters_per_fit"] = (
        statistics.fmean(f.iters for f in fits) if fits else 0.0, "count")
    metrics["solvers.backtracks_per_fit"] = (
        (tracer.pair_calls - sum(f.accepted + 1 for f in ls_fits)) / len(ls_fits)
        if ls_fits else 0.0,
        "count")
    metrics["solvers.capped_fits"] = (
        sum(f.termination == "max_iters" for f in fits) / k, "count")
    for layer, self_s in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = (self_s / k, "s")
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    table = {key: (stat(key) if key in present else "absent") for key in TABLE_FUNCTIONS}
    extras = {
        "table": table,
        "traced_passes": k,
        "untraced_passes": len(untraced),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
    }
    return metrics, extras


def print_end_to_end(workload: str, metrics: dict, extras: dict) -> None:
    print(f"{workload}: {extras['passes']} passes, {extras['ops']} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  {'pass times':<12} " + ", ".join(f"{w:.4g}" for w in extras["pass_wall_s"])
          + " s, unadjusted")
    refs = extras["references"]
    print(f"  {'speed probe':<12} {len(refs)} reference timings, fastest {1e3 * refs[0]:.4g} ms, "
          f"median {1e3 * statistics.median(refs):.4g} ms")
    print(f"  {'op_s_p50':<12} {extras['op_s_p50']:.6g} s")
    t = extras["op_s_tail"]
    if t is None:
        print(f"  {'op_s_tail':<12} not reported: {extras['ops']} operations < 11")
    else:
        print(f"  {'op_s_tail':<12} {t[0]:.6g} s  (p{t[1]:.4g} of {extras['ops']} operations, 10 beyond)")
    # Every pass repeats the same operations (the gate checks it), so the
    # counts divide evenly.
    frac, bad, n, failed, capped = extras["fail_frac"]
    k = extras["passes"]
    print(f"  {'fail_frac':<12} {frac:.6g} ratio  ({bad // k}/{n // k} per pass: "
          f"{failed // k} raised or aborted, {capped // k} capped)")


def print_per_layer(workload: str, metrics: dict, extras: dict) -> None:
    print(f"{workload}: traced {extras['traced_passes']} passes, untraced {extras['untraced_passes']}; "
          f"wall {extras['traced_wall_s']:.4f} s traced vs {extras['untraced_wall_s']:.4f} s untraced")
    print(f"  {'function':<30} {'calls':>10} {'us/call':>10} {'total_s':>10} {'self_s':>10}")
    for key, row in extras["table"].items():
        if row == "absent":
            print(f"  {key:<30} {'absent':>10}")
        elif row is None or row["calls"] == 0:
            print(f"  {key:<30} {0:>10}")
        else:
            print(f"  {key:<30} {row['calls']:>10.0f} {row['us_per_call']:>10.2f} "
                  f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for name, (value, unit) in metrics.items():
        if not name.startswith(tuple(f"{k}." for k, _ in JSON_FUNCTION_STATS)):
            print(f"  {name:<30} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--toy", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare inputs, print ready and the speed factor, exit")
    args = parser.parse_args(argv)

    try:
        plan = workloads.prepare(args.workload, args.seed, args.workdir, args.toy)
        if args.setup_only:
            print("ready", flush=True)
            print(SpeedProbe().speed_factor(), flush=True)
            return 0
        print("env " + json.dumps(environment(), sort_keys=True))
        probe = None if args.trace else SpeedProbe()
        passes, tracer = measure(plan, args.seconds, bool(args.trace), probe)
    except workloads.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    if args.trace:
        metrics, extras = per_layer(passes, tracer)
        print_per_layer(args.workload, metrics, extras)
    else:
        metrics, extras = end_to_end(passes, probe)
        print_end_to_end(args.workload, metrics, extras)
    statuses = [s for p in passes for s in p.statuses]
    result = {
        "correct": True,
        "attempted": len(statuses),
        "failed": statuses.count(workloads.FAILED),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
