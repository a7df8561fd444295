"""The benchmark under perfbench/ still drives the package.

perfbench/ is versioned with its own contract and reaches into mugl by name
(harness.learn, harness.resolve_config, solvers.TERMINATIONS, ...).  Each
workload runs once at its toy size, with the benchmark's correctness gate
on, so a change that drops or renames a name the benchmark uses fails here
rather than in a benchmark run.
"""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["headline", "scale", "cli_pipeline"])
def test_workload_runs_at_toy_size(workloads, tmp_path, name):
    plan = workloads.prepare(name, 0, str(tmp_path), toy=True)
    recorder = workloads.FitRecorder()
    recorder.install()
    try:
        result = workloads.run_pass(plan, recorder, check=True)
    finally:
        recorder.uninstall()
    assert set(result.statuses) == {workloads.OK}
