"""mugl benchmark entry point.  Run from the root of a mugl checkout:

    python3 perfbench/run.py --workload headline --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each workload runs in a fresh worker process (perfbench/worker.py) whose
BLAS and OpenMP threads are pinned to 1 and which imports mugl from the
checkout's ``src``.  With --trace 0 the set-up time is measured first: the
median, over several fresh processes, of the time from process start until
imports and input preparation are done, speed-adjusted like the pass times
(see speedprobe.py).  The last stdout line is the JSON
result; ``--workload all`` runs every workload and ends with one JSON object
whose metric names carry the workload as a prefix.

Exits 2 when the current directory holds no mugl sources, and with the
worker's code when the worker fails, printing no result in either case.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("headline", "scale", "cli_pipeline")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_RUNS = 3
# Each workload must end within 180 s; the worker gets what set-up leaves.
RUN_DEADLINE_S = 170.0
WORK_ROOT = ".perfbench_work"


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(base_cmd: list, env: dict, deadline: float) -> tuple[float, float]:
    """Median seconds from spawning a worker to its "ready" line, speed-adjusted
    and unadjusted.

    Each worker started with --setup-only prints the speed factor measured
    right after its set-up (perfbench/speedprobe.py); the adjusted sample is
    the set-up time times that factor.
    """
    raw, adjusted = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(base_cmd + ["--setup-only"], stdout=subprocess.PIPE, env=env,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up run failed with exit code {proc.returncode}")
        raw.append(elapsed)
        adjusted.append(elapsed * float(rest))
    return statistics.median(adjusted), statistics.median(raw)


def run_workload(workload: str, args, root: str, env: dict) -> dict | None:
    """Run one workload in a fresh worker; relay its report, return its result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(root, WORK_ROOT, f"{workload}-{os.getpid()}")
    base_cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
                "--workdir", workdir] + (["--toy"] if args.toy else [])
    try:
        setup = None if args.trace else measure_setup(base_cmd, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return None
    cmd = base_cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print(f"error: {workload} did not finish in time", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        print(f"error: {workload} worker exited {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if setup is not None:
        print(f"  {'setup_s':<12} {setup[0]:.6g} s  (median of {SETUP_RUNS} fresh processes; "
              f"unadjusted {setup[1]:.6g} s)")
        result["metrics"] = {"setup_s": {"value": setup[0], "unit": "s"}, **result["metrics"]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="master seed of the inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mugl", "__init__.py")):
        print(f"error: no mugl sources under {src}; run from the root of a mugl checkout",
              file=sys.stderr)
        return 2
    env = worker_env(src)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result = run_workload(name, args, root, env)
            if result is None:
                return 1
            results[name] = result
    finally:
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass
    if args.workload != "all":
        print(json.dumps(results[args.workload]), flush=True)
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
