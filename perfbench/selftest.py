"""Quick self-test of the benchmark.  Run from the root of a mugl checkout:

    python3 perfbench/selftest.py

It checks that
* every workload, run at toy size with --trace 0 and --trace 1, ends with a
  JSON result that carries each metric BENCHMARK.json names, with its unit;
* the correctness gate rejects a corrupted weight vector, both when called
  directly and inside a run, which then prints no result and exits nonzero;
* a traced run still reports when a layer function it lists is gone
  (pgd_solve is slated for deletion): the function shows as absent;
* the speed adjustment scales each stretch of work and leaves probe time out;
* the benchmark exits nonzero without a result in a directory that holds
  only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import speedprobe  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from mugl import harness, solvers  # noqa: E402
from mugl.datagen import GraphSpec, SignalSpec, gen_graph, gen_signals  # noqa: E402

failures = []


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        failures.append(message)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics_emitted(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, timeout=170,
            )
            result = last_json(proc.stdout)
            check(proc.returncode == 0 and result is not None and result["correct"]
                  and result["attempted"] >= 1,
                  f"{workload} --trace {trace} exits 0 with a correct result")
            if result is None:
                continue
            emitted = result["metrics"]
            for metric in spec[section]:
                got = emitted.get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{workload} --trace {trace} emits {metric['name']} in {metric['unit']}")


def toy_fit() -> workloads.Fit:
    graph = gen_graph(GraphSpec("gaussian", 8, seed=3))
    X = gen_signals(graph.laplacian, SignalSpec(n=40, epsilon=0.1, seed=4))
    preset = harness.ModelPreset("mugl_l")
    _, report = harness.learn(preset, X)
    return workloads.Fit(preset, X, 0.0, report.termination, report.iters,
                         w=report.w_final)


def gate_rejects(fit: workloads.Fit) -> bool:
    try:
        workloads.check_fit(fit)
    except workloads.GateError:
        return True
    return False


def check_gate_direct() -> None:
    fit = toy_fit()
    check(not gate_rejects(fit), "gate accepts a real fit")
    w = fit.w
    shifted = w.copy()
    shifted[0] += 0.5
    negative = w.copy()
    negative[np.argmax(w)] += 1.0
    negative[np.argmin(w)] -= 1.0
    for name, bad in (("off the simplex sum", shifted), ("negative entry", negative)):
        fit.w = bad
        check(gate_rejects(fit), f"gate rejects a corrupted weight vector ({name})")
    fit.w = w
    fit.termination = "gave_up"
    check(gate_rejects(fit), "gate rejects an unknown termination")


def check_gate_in_run() -> None:
    original = harness.learn

    def corrupt_learn(preset, X):
        L, report = original(preset, X)
        report.w_final = report.w_final * 1.5
        return L, report

    harness.learn = corrupt_learn
    out = io.StringIO()
    workdir = os.path.join(ROOT, run.WORK_ROOT, f"selftest-{os.getpid()}")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = worker.main(["--workload", "headline", "--seed", "0", "--seconds", "0",
                                "--workdir", workdir, "--toy"])
    finally:
        harness.learn = original
    check(code != 0 and last_json(out.getvalue()) is None,
          "a run with corrupted weights exits nonzero and prints no result")


def check_absent_function() -> None:
    original = solvers.pgd_solve
    del solvers.pgd_solve
    out = io.StringIO()
    workdir = os.path.join(ROOT, run.WORK_ROOT, f"absent-{os.getpid()}")
    try:
        with contextlib.redirect_stdout(out):
            code = worker.main(["--workload", "scale", "--seed", "0", "--seconds", "0",
                                "--trace", "1", "--workdir", workdir, "--toy"])
    finally:
        solvers.pgd_solve = original
    result = last_json(out.getvalue())
    check(code == 0 and result is not None
          and result["metrics"]["solvers.pgd_solve.calls"]["value"] == 0
          and any(line.split()[:2] == ["solvers.pgd_solve", "absent"]
                  for line in out.getvalue().splitlines()),
          "a traced run reports a deleted layer function as absent")


def check_speed_adjustment() -> None:
    probe = speedprobe.SpeedProbe()
    quiet = speedprobe.QUIET_REFERENCE_S
    # 1 s at quiet speed, a 0.1 s probe, then 1 s at half speed.
    probe.segments = [(0.0, 1.0, quiet), (1.1, 2.1, 2 * quiet)]
    check(abs(probe.speed_adjusted(0.5, 2.1) - 1.0) < 1e-12,
          "speed adjustment scales each stretch and leaves probe time out")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, run.WORK_ROOT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "headline", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "exits nonzero without a result when the checkout has no sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(run.WORKLOADS == workloads.WORKLOADS
          and [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "run.py, workloads.py and BENCHMARK.json name the same workloads")
    check_gate_direct()
    check_gate_in_run()
    check_absent_function()
    check_speed_adjustment()
    check_bare_directory()
    check_metrics_emitted(spec)
    try:
        os.rmdir(os.path.join(ROOT, run.WORK_ROOT))
    except OSError:
        pass
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
