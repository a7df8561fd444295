import csv
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import typing
from dataclasses import asdict

import numpy as np
import pytest

import mugl.objective
from mugl import cli, harness
from mugl.datagen import GraphSpec, SignalSpec
from mugl.evaluation import metric_record
from mugl.laplacian import read_edge_list, write_edge_list
from mugl.moments import RadiusParams, empirical_moments, read_signals_csv, write_signals_csv
from mugl.solvers import SolverOptions

GEN_CONFIG = {
    "graph": {"family": "er", "m": 5, "seed": 2, "p": 0.5},
    "signals": {"n": 30, "epsilon": 0.1, "seed": 102},
}

# a master seed in place of section seeds
GEN_MASTER_CONFIG = {
    "graph": {"family": "er", "m": 5, "p": 0.5},
    "signals": {"n": 30, "epsilon": 0.1},
    "seed": 7,
}

BENCH_CONFIG = {
    "graph": {"family": "er", "m": 5, "p": 0.5},
    "signals": {"n": 20, "epsilon": 0.1},
    "presets": [{"name": "vsgl"}, {"name": "mugl_o"}],
    "n_seeds": 2,
    "seed": 7,
}


def write_config(tmp_path, doc, name="config.json"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_generate(tmp_path, config=GEN_CONFIG, extra=()):
    out = tmp_path / "data"
    cfg = write_config(tmp_path, config, "gen.json")
    code = cli.main(["generate", "--config", cfg, "--out", str(out), "--quiet", *extra])
    assert code == 0
    return out


def test_generate_complete_graph(tmp_path):
    out = run_generate(tmp_path, {
        "graph": {"family": "er", "m": 5, "seed": 0, "p": 1.0},
        "signals": {"n": 10, "epsilon": 0.1, "seed": 1},
    })
    w, m = read_edge_list(out / "graph.edges")
    assert m == 5
    assert np.count_nonzero(w) == 10
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["n_edges"] == 10
    assert prov["connected"] is True
    assert prov["graph_spec"]["family"] == "er"


def test_generate_is_deterministic(tmp_path):
    out_a = run_generate(tmp_path / "a")
    out_b = run_generate(tmp_path / "b")
    for name in ("graph.edges", "signals.csv", "provenance.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_generate_master_seed_derives_sections(tmp_path):
    config = {
        "graph": {"family": "er", "m": 5, "p": 0.5},
        "signals": {"n": 10, "epsilon": 0.1},
    }
    out = run_generate(tmp_path, config, extra=("--seed", "5"))
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["master_seed"] == 5
    g, s = harness.run_seeds(5, 1)[0]
    assert prov["graph_spec"]["seed"] == g
    assert prov["signal_spec"]["seed"] == s


@pytest.mark.parametrize("extra, config", [
    (("--seed", "5"), GEN_CONFIG),
    ((), {**GEN_CONFIG, "seed": 5}),
])
def test_generate_rejects_section_seeds_beside_a_master_seed(tmp_path, capsys, extra, config):
    out = tmp_path / "data"
    cfg = write_config(tmp_path, config, "gen.json")
    assert cli.main(["generate", "--config", cfg, "--out", str(out), "--quiet", *extra]) == 2
    # the graph section is decoded first, so its seed is the one named
    assert capsys.readouterr().err == (
        "error: config.graph: per-run seeds derive from the master seed; "
        "remove 'seed' from this section\n"
    )
    assert not out.exists()


def test_malformed_json_cites_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"graph": {,}}')
    code = cli.main(["generate", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_too_deeply_nested_config_is_config_error(tmp_path, monkeypatch, capsys):
    # json.loads gives up with RecursionError, which is a RuntimeError
    monkeypatch.chdir(tmp_path)
    depth = 200_000
    (tmp_path / "config.json").write_text('{"graph": ' + "[" * depth + "]" * depth + "}")
    assert cli.main(["generate", "--config", "config.json", "--out", "out"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config.json: JSON parse error: maximum recursion depth exceeded"
    )
    assert os.listdir(tmp_path) == ["config.json"]


def test_unknown_key_is_named(tmp_path, capsys):
    config = {
        "graph": {"family": "er", "m": 5, "seed": 0, "prob": 0.5},
        "signals": {"n": 10, "epsilon": 0.1, "seed": 1},
    }
    code = cli.main(["generate", "--config", write_config(tmp_path, config)])
    assert code == 2
    assert "'prob'" in capsys.readouterr().err
    # removed solver options (the first step and the Armijo settings are
    # constants now, and no step-size tolerance stops a solve)
    for key in ("step", "beta", "gamma", "max_backtracks", "eta_max", "tol_step"):
        learn_config = {
            "signals": str(tmp_path / "signals.csv"),
            "preset": {"name": "mugl_o", "solver": {key: 0.01}},
        }
        code = cli.main(["learn", "--config", write_config(tmp_path, learn_config, "learn.json")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
    # removed radius keys (the formulas' constants are 1, and the spectral
    # norm is always the sample covariance's)
    for key in ("c0", "c1", "c2", "sigma_norm"):
        learn_config = {
            "signals": str(tmp_path / "signals.csv"),
            "preset": {"name": "mugl_o", "radius_params": {key: 1.0}},
        }
        code = cli.main(["learn", "--config", write_config(tmp_path, learn_config, "learn.json")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err


def test_graph_parameter_of_another_family_is_config_error(tmp_path, capsys):
    out = tmp_path / "data"
    config = {**GEN_CONFIG, "graph": {**GEN_CONFIG["graph"], "sigma": 0.3}}
    cfg = write_config(tmp_path, config, "gen.json")
    assert cli.main(["generate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "config.graph: only the gaussian family reads sigma" in capsys.readouterr().err
    assert not out.exists()


def test_learn_vsgl_finds_single_edge(tmp_path):
    data = run_generate(tmp_path)
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, {
        "signals": str(data / "signals.csv"),
        "preset": {"name": "vsgl"},
    }, "learn.json")
    code = cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    w, m = read_edge_list(out / "learned.edges")
    assert m == 5
    assert np.count_nonzero(w) == 1
    report = json.loads((out / "solve_report.json").read_text())
    assert report["termination"] == "kkt_tol"
    assert report["certified"] is True
    assert report["resolved"]["rho1"] == 0.0


def test_learn_writes_a_stalled_fit_uncertified(tmp_path, stalled_line_search):
    # a fit whose fallback search accepts no trial stops on step_tol at the
    # centroid start; learn writes it, flagged, and exits 0
    data = run_generate(tmp_path)
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, {
        "signals": str(data / "signals.csv"),
        "preset": {"name": "mugl_o"},
    }, "learn.json")
    assert cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["termination"] == "step_tol" and report["iters"] == 1
    assert report["certified"] is False
    assert "converged" not in report
    w, m = read_edge_list(out / "learned.edges")
    assert np.array_equal(w, np.full(10, 0.5))


def test_learn_barrier_trace_non_increasing(tmp_path):
    data = run_generate(tmp_path)
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, {
        "signals": str(data / "signals.csv"),
        "preset": {"name": "mugl_l"},
        "trace": True,
    }, "learn.json")
    code = cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "solve_report.json").read_text())
    trace = report["objective_trace"]
    # the terminal kkt check happens before stepping, so the last loop pass
    # contributes no trace entry
    assert report["termination"] == "kkt_tol"
    assert len(trace) == report["iters"]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert report["kkt_residual"] is not None
    assert report["objective"] == trace[-1]


def test_learn_report_counts_backtracks(tmp_path):
    data = run_generate(tmp_path)
    for name in ("mugl_l", "vsgl"):
        out = tmp_path / f"fit_{name}"
        cfg = write_config(tmp_path, {
            "signals": str(data / "signals.csv"),
            "preset": {"name": name},
        }, f"learn_{name}.json")
        assert cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert isinstance(report["backtracks"], int) and report["backtracks"] >= 0
        assert report["gap"] >= 0.0
        if name == "vsgl":
            assert report["backtracks"] == 0
            assert report["gap"] == 0.0


def test_learn_report_records_the_resolved_config(tmp_path):
    data = run_generate(tmp_path)
    X = read_signals_csv(data / "signals.csv")
    for i, preset in enumerate([
        {"name": "mugl_l", "radius_params": {"delta": 0.01}},
        {"name": "mugl_o", "rho2": 0},
    ]):
        out = tmp_path / f"fit{i}"
        cfg = write_config(tmp_path, {"signals": str(data / "signals.csv"), "preset": preset},
                           f"learn{i}.json")
        assert cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        parsed = cli.parse_fields(harness.ModelPreset, preset, "preset")
        resolved = harness.resolve_config(parsed, empirical_moments(X), 5)
        assert report["resolved"] == asdict(resolved)
        assert (report["m"], report["n"]) == X.shape
        # the recorded config rebuilds the one learn returns
        assert mugl.objective.ModelConfig(**report["resolved"]) == harness.learn(parsed, X)[0]


def test_config_schema_round_trips(tmp_path):
    preset = harness.ModelPreset(
        "mugl_o",
        label="robust",
        rho1=0.25,
        rho2=1.5,
        radius_params=RadiusParams(delta=0.01),
        solver=SolverOptions(max_iters=500, tol_kkt=1e-7),
    )
    assert cli.parse_fields(harness.ModelPreset, asdict(preset), "preset") == preset

    config = {**GEN_CONFIG, "signals": {**GEN_CONFIG["signals"], "mu_star": [0.5, 0, -1, 2, 0.25]}}
    text = (run_generate(tmp_path, config) / "provenance.json").read_text()
    # floats are written as their shortest repr
    assert '"epsilon": 0.1,' in text
    prov = json.loads(text)
    graph_spec = cli.parse_fields(GraphSpec, prov["graph_spec"], "graph_spec")
    signal_spec = cli.parse_fields(SignalSpec, prov["signal_spec"], "signal_spec")
    assert graph_spec == GraphSpec(**config["graph"])
    assert (signal_spec.n, signal_spec.epsilon, signal_spec.seed) == (30, 0.1, 102)
    np.testing.assert_array_equal(signal_spec.mu_star, config["signals"]["mu_star"])


def test_null_only_where_a_field_is_optional(tmp_path, capsys):
    # a null label becomes the preset's name
    parsed = cli.parse_fields(harness.ModelPreset, {"name": "vsgl", "label": None}, "preset")
    assert parsed.label == "vsgl"
    cfg = write_config(tmp_path, {
        "signals": str(tmp_path / "signals.csv"),
        "preset": {"name": "mugl_o", "alpha": None},
    })
    assert cli.main(["learn", "--config", cfg, "--quiet"]) == 2
    assert "config.preset.alpha" in capsys.readouterr().err


def test_parse_value_bool_is_true_or_false():
    assert cli.parse_value(bool, False, "config.trace") is False
    for val in (1, "true"):
        with pytest.raises(ValueError) as exc:
            cli.parse_value(bool, val, "config.trace")
        assert str(exc.value) == f"config.trace must be a boolean, got {val!r}"


def test_parse_value_tuple_decodes_each_item():
    hint = tuple[harness.ModelPreset, ...]
    got = cli.parse_value(hint, [{"name": "vsgl"}, {"name": "vsgl", "label": "b"}], "config.presets")
    assert got == (harness.ModelPreset("vsgl"), harness.ModelPreset("vsgl", label="b"))
    for item, message in [
        ("vsgl", "config.presets[1] must be an object"),
        ({"name": "nope"}, "config.presets[1]: unknown preset 'nope'"),
    ]:
        with pytest.raises(ValueError) as exc:
            cli.parse_value(hint, [{"name": "vsgl"}, item], "config.presets")
        assert str(exc.value).startswith(message)


@pytest.mark.parametrize("val", ["a", None, 5, ["a"]])
def test_parse_value_reads_typing_optional_as_a_union_with_none(val):
    # on Python 3.10 get_type_hints spells a field that defaults to None
    # as typing.Optional, not as X | None
    def decoded(hint):
        try:
            return cli.parse_value(hint, val, "config.out")
        except ValueError as exc:
            return f"error: {exc}"

    assert decoded(typing.Optional[str]) == decoded(str | None)


@pytest.mark.parametrize("preset", [
    {"name": "mugl_o", "alpha": 0.3},
    {"name": "mugl_l", "quad_weight": 1.0},
    {"name": "log_model", "radius_params": {"delta": 0.01}},
    {"name": "vsgl", "rho2": 0.5},
    {"name": "log_model", "rho1": 0.5},
])
def test_preset_field_the_preset_never_reads_is_config_error(tmp_path, capsys, preset):
    data = run_generate(tmp_path)
    fit = tmp_path / "fit"
    cfg = write_config(tmp_path, {"signals": str(data / "signals.csv"), "preset": preset},
                       "learn.json")
    assert cli.main(["learn", "--config", cfg, "--out", str(fit), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config.preset: " in err and preset["name"] in err
    assert not fit.exists()


@pytest.mark.parametrize("preset, message", [
    ({"name": "mugl_l", "alpha": 0}, "mugl_l's log-degree barrier needs alpha > 0, got 0.0"),
    ({"name": "log_model", "quad_weight": -1}, "quad_weight must be nonnegative, got -1.0"),
])
def test_preset_weight_out_of_range_fails_before_any_input(tmp_path, monkeypatch, capsys,
                                                         preset, message):
    calls = []
    monkeypatch.setattr(harness, "learn", lambda preset, X: calls.append(preset))
    fit = tmp_path / "fit"
    cfg = write_config(tmp_path, {"signals": str(tmp_path / "absent.csv"), "preset": preset},
                       "learn.json")
    assert cli.main(["learn", "--config", cfg, "--out", str(fit), "--quiet"]) == 2
    assert f"config.preset: {message}" in capsys.readouterr().err
    code, out = run_bench(tmp_path, {**BENCH_CONFIG, "presets": [preset]})
    assert code == 2
    assert f"config.presets[0]: {message}" in capsys.readouterr().err
    assert calls == []
    assert not fit.exists() and not out.exists()


def test_non_finite_config_numbers_are_rejected(tmp_path, capsys):
    out = tmp_path / "data"
    config = {**GEN_CONFIG, "signals": {**GEN_CONFIG["signals"], "epsilon": math.nan}}
    cfg = write_config(tmp_path, config, "gen.json")
    assert cli.main(["generate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "config.signals.epsilon" in capsys.readouterr().err
    assert not out.exists()

    data = run_generate(tmp_path / "ok")
    fit = tmp_path / "fit"
    cfg = write_config(tmp_path, {
        "signals": str(data / "signals.csv"),
        "preset": {"name": "mugl_o", "rho1": math.inf},
    }, "learn.json")
    assert cli.main(["learn", "--config", cfg, "--out", str(fit), "--quiet"]) == 2
    assert "config.preset.rho1" in capsys.readouterr().err
    assert not fit.exists()


@pytest.mark.parametrize("argv", [
    ["learn", "--seed", "3"],
    ["eval", "--seed", "3"],
    ["generate", "--threads", "2"],
    ["learn", "--threads", "2"],
    ["eval", "--threads", "2"],
])
def test_flags_are_registered_only_where_read(tmp_path, argv, capsys):
    # --seed belongs to generate and bench, --threads to bench
    cfg = write_config(tmp_path, {})
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", cfg])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cached_parser_behaves_like_a_fresh_one(tmp_path, capsys):
    # main builds its parser once per process; consecutive commands must not
    # see each other's flags or defaults
    signals = tmp_path / "signals.csv"
    write_signals_csv(signals, np.random.default_rng(0).standard_normal((5, 30)))
    learn_cfg = write_config(tmp_path, {
        "signals": str(signals), "preset": {"name": "vsgl"},
    }, "learn.json")
    gen_cfg = write_config(tmp_path, {
        "graph": {"family": "er", "m": 5, "p": 0.5},
        "signals": {"n": 10, "epsilon": 0.1},
    }, "gen.json")
    fresh = cli.build_parser.__wrapped__
    for argv in (
        ["learn", "--config", learn_cfg, "--out", str(tmp_path / "fit"), "--quiet"],
        ["generate", "--config", gen_cfg, "--out", str(tmp_path / "data"), "--quiet",
         "--seed", "3"],
    ):
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
        assert cli.main(argv) == 0
    assert cli.build_parser() is cli.build_parser()
    prov = json.loads((tmp_path / "data" / "provenance.json").read_text())
    assert prov["master_seed"] == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["learn", "--config", learn_cfg, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_learn_missing_signals_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "signals": str(tmp_path / "nowhere.csv"),
        "preset": {"name": "vsgl"},
        "out": str(tmp_path / "fit"),
    })
    assert cli.main(["learn", "--config", cfg, "--quiet"]) == 3
    assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("line", [1, 3], ids=["header", "row"])
def test_learn_oversized_csv_field_is_config_error(tmp_path, capsys, line):
    # the csv module, which reads only the header, refuses any field longer
    # than csv.field_size_limit(); loadtxt reads the rows and has no limit
    big = "x" * (csv.field_size_limit() + 1)
    signals = tmp_path / "big.csv"
    rows = [f"node_1,{big}", "1,2"] if line == 1 else ["node_1,node_2", "1,2", f"3,{big}"]
    signals.write_text("\r\n".join(rows) + "\r\n")
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, {"signals": str(signals), "preset": {"name": "vsgl"}})
    assert cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    if line == 1:
        assert f"{signals}: line 1: " in err and "field larger than field limit" in err
    else:
        assert f"{signals}: row 3 has a non-numeric field" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-inf", "4" * 400], ids=["nan", "inf", "overflow"])
def test_learn_non_finite_signal_names_file_and_row(tmp_path, capsys, value):
    signals = tmp_path / "signals.csv"
    signals.write_text(f"node_1,node_2\r\n1,2\r\n3,{value}\r\n")
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, {"signals": str(signals), "preset": {"name": "vsgl"}})
    assert cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert f"{signals}: row 3 has a non-finite field" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["mugl_l", "log_model", "vsgl"])
@pytest.mark.parametrize("case", ["scaled", "offset", "held"])
def test_learn_overflowing_second_moments_is_config_error(tmp_path, capsys, case, preset):
    # finite signals whose covariance or squared mean gap overflows
    Z = np.random.default_rng(0).standard_normal((5, 20))
    X = {
        "scaled": Z * 1e200,
        "offset": Z + np.where(np.arange(20) % 2 == 0, 1e170, -1e170),
        "held": np.repeat(np.where(np.arange(5) % 2 == 0, 1e160, -1e160)[:, None], 20, axis=1),
    }[case]
    signals = tmp_path / "signals.csv"
    write_signals_csv(signals, X)
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, {"signals": str(signals), "preset": {"name": preset}})
    assert cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: signal second moments overflow; rescale the signals\n"
    assert not out.exists()


def test_eval_oversized_edge_list_field_is_config_error(tmp_path, capsys):
    # edge lists are not read through the csv module, so no field limit
    # applies; an absurd weight is still refused by line
    edges = tmp_path / "big.edges"
    edges.write_text("# m=3\n2 1 " + "1" * 200_000 + "\n")
    cfg = write_config(tmp_path, {"truth": str(edges), "predicted": str(edges)})
    assert cli.main(["eval", "--config", cfg]) == 2
    assert f"{edges}:2: weight must be finite" in capsys.readouterr().err


def test_eval_one_node_edge_list_is_config_error(tmp_path, capsys):
    # a one-node list has no pair to score; the reader names the file
    # rather than letting scoring fail on empty indicator vectors
    edges = tmp_path / "one.edges"
    edges.write_text("# m=1\n")
    cfg = write_config(tmp_path, {"truth": str(edges), "predicted": str(edges)})
    assert cli.main(["eval", "--config", cfg]) == 2
    assert f"{edges}: node count must be at least 2, got 1" in capsys.readouterr().err


def test_generate_wrong_length_mu_star_writes_nothing(tmp_path, capsys):
    out = tmp_path / "data"
    cfg = write_config(tmp_path, {
        "graph": {"family": "er", "m": 6, "seed": 0, "p": 0.5},
        "signals": {"n": 10, "epsilon": 0.1, "seed": 1, "mu_star": [1.0, 2.0]},
    })
    assert cli.main(["generate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "mu_star" in capsys.readouterr().err
    assert not out.exists()


LEARN_CONFIG = {"signals": "signals.csv", "preset": {"name": "vsgl"}}
EVAL_CONFIG = {"truth": "truth.edges", "predicted": "pred.edges"}


@pytest.mark.parametrize("command, config, message", [
    ("generate", [GEN_CONFIG], "config.json: top-level config must be a JSON object"),
    ("generate", {"graph": GEN_CONFIG["graph"]}, "missing required key 'signals' in config"),
    ("generate", {**GEN_CONFIG, "signals": {**GEN_CONFIG["signals"], "mu_star": 1.0}},
     "config.signals.mu_star must be a list, got 1.0"),
    ("bench", {**BENCH_CONFIG, "n_seeds": 2.5}, "config.n_seeds must be an integer, got 2.5"),
    ("generate", {**GEN_CONFIG, "graph": "er"}, "config.graph must be an object"),
    ("bench", {**BENCH_CONFIG, "presets": ["vsgl"]}, "config.presets[0] must be an object"),
    ("learn", {**LEARN_CONFIG, "signals": 5}, "config.signals must be a string, got 5"),
    ("learn", {**LEARN_CONFIG, "trace": 1}, "config.trace must be a boolean, got 1"),
    ("eval", {**EVAL_CONFIG, "truth": 1}, "config.truth must be a string, got 1"),
    ("eval", {**EVAL_CONFIG, "predicted": None}, "config.predicted must be a string, got None"),
], ids=["top_level_list", "missing_key", "mu_star_scalar", "n_seeds_fraction", "graph_string",
        "preset_string", "signals_number", "trace_number", "truth_number", "predicted_null"])
def test_malformed_config_is_config_error(tmp_path, monkeypatch, capsys, command, config,
                                          message):
    # no input file exists, so a command that read one first would exit 3
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, config)
    assert cli.main([command, "--config", cfg, "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(f"{message}\n")
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command, text, key", [
    ("generate", '{"graph": {"family": "er", "m": 5, "p": 0.5}, "graph": {"family": "complete", '
                 '"m": 5}, "signals": {"n": 30, "epsilon": 0.1}}', "graph"),
    ("learn", '{"signals": "signals.csv", "preset": {"name": "vsgl"}, "signals": "other.csv"}',
     "signals"),
    ("eval", '{"truth": "truth.edges", "predicted": "pred.edges", "threshold": 0.1, '
             '"threshold": 0.2}', "threshold"),
    ("bench", '{"graph": {"family": "er", "m": 5, "p": 0.5}, "signals": {"n": 20, "epsilon": 0.1}, '
              '"presets": [{"name": "vsgl"}], "n_seeds": 1, "n_seeds": 2}', "n_seeds"),
    ("bench", '{"graph": {"family": "er", "m": 5, "p": 0.5, "m": 6}, "signals": {"n": 20, '
              '"epsilon": 0.1}, "presets": [{"name": "vsgl"}], "n_seeds": 1}', "m"),
], ids=["generate", "learn", "eval", "bench", "bench_section"])
def test_repeated_config_key_is_config_error(tmp_path, monkeypatch, capsys, command, text, key):
    # json.loads would keep the last value; no input file exists, so a
    # command that read one first would exit 3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(text)
    assert cli.main([command, "--config", "config.json", "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config.json: repeated key {key!r}\n"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command, bad", [
    ("learn", "config.json"), ("learn", "signals.csv"), ("eval", "truth.edges"),
    ("eval", "pred.edges"),
])
def test_undecodable_input_names_the_file(tmp_path, monkeypatch, capsys, command, bad):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, LEARN_CONFIG if command == "learn" else EVAL_CONFIG)
    (tmp_path / "signals.csv").write_text("node_1,node_2\r\n1,2\r\n3,4\r\n")
    (tmp_path / "truth.edges").write_text("# m=3\n2 1 1.0\n")
    (tmp_path / "pred.edges").write_text("# m=3\n2 1 1.0\n")
    with open(bad, "ab") as fh:
        fh.write(b"\xff")
    assert cli.main([command, "--config", "config.json", "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config", [
    ("generate", GEN_CONFIG), ("learn", LEARN_CONFIG), ("bench", BENCH_CONFIG),
])
def test_missing_output_directory_is_config_error(tmp_path, monkeypatch, capsys, command, config):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, config)
    assert cli.main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: no output directory: set 'out' in the config or pass --out\n"
    )
    assert os.listdir(tmp_path) == ["config.json"]


def test_generate_reports_what_it_wrote(tmp_path, capsys):
    out = tmp_path / "data"
    cfg = write_config(tmp_path, GEN_CONFIG)
    assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote graph.edges, signals.csv, provenance.json to {out}\n"
    )


@pytest.mark.parametrize("command, patched", [
    ("generate", (cli, "gen_graph")),
    ("learn", (cli, "read_signals_csv")),
    ("eval", (cli, "read_edge_list")),
    ("bench", (harness, "run_experiment")),
])
def test_allocation_failure_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, command,
                                                       patched):
    # the generator or reader fails as numpy does on an impossible size,
    # without allocating anything
    def unable_to_allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.47 EiB for an array")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(*patched, unable_to_allocate)
    config = {"generate": GEN_CONFIG, "learn": LEARN_CONFIG, "eval": EVAL_CONFIG,
              "bench": BENCH_CONFIG}[command]
    cfg = write_config(tmp_path, config)
    assert cli.main([command, "--config", cfg, "--out", "out", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: size too large: Unable to allocate 3.47 EiB for an array\n"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command, config", [
    ("generate", {**GEN_CONFIG, "out": 5}),
    ("learn", {"signals": "absent.csv", "preset": {"name": "vsgl"}, "out": 5}),
    ("eval", {"truth": "absent.edges", "predicted": "absent.edges", "out": 0}),
], ids=["generate", "learn", "eval"])
def test_non_string_out_is_config_error(tmp_path, monkeypatch, capsys, command, config):
    # learn's and eval's inputs do not exist, so a command that read them
    # before checking 'out' would exit 3
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, config)
    assert cli.main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config.out must be a string" in captured.err
    assert os.listdir(tmp_path) == ["config.json"]


def _must_not_run(*args, **kwargs):
    raise AssertionError("input read or work done before the output path was checked")


@pytest.mark.parametrize("command, patched", [
    ("generate", (cli, "gen_graph")),
    ("learn", (cli, "read_signals_csv")),
    ("bench", (harness, "run_experiment")),
])
@pytest.mark.parametrize("out, error", [
    ("taken", "file exists: taken"),
    ("taken/fit", "not a directory: taken/fit"),
    ("taken/a/b", "not a directory: taken/a"),
], ids=["file", "under_file", "deep_under_file"])
def test_unusable_out_fails_before_any_input(tmp_path, monkeypatch, capsys, command, patched,
                                             out, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    monkeypatch.setattr(*patched, _must_not_run)
    config = {
        "generate": GEN_CONFIG,
        "learn": LEARN_CONFIG,
        "bench": BENCH_CONFIG,
    }[command]
    cfg = write_config(tmp_path, config)
    assert cli.main([command, "--config", cfg, "--out", out, "--quiet"]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "taken"]


@pytest.mark.parametrize("path", [
    "taken", "taken/", "./taken", "taken/fit", "taken/a/b", "taken/a/b/", "taken/.",
    "dir", "dir/new/deeper", "new", ".",
])
def test_out_dir_check_raises_what_makedirs_raises(tmp_path, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    (tmp_path / "dir").mkdir()

    def outcome(check):
        try:
            check(path)
        except OSError as exc:
            return type(exc), exc.errno, exc.strerror, exc.filename
        return None

    expected = outcome(cli.check_makedirs)
    assert outcome(lambda p: os.makedirs(p, exist_ok=True)) == expected


@pytest.mark.parametrize("preset", ["mugl_o", "mugl_l"],
                         ids=["nonsmooth_point", "non_finite_gradient"])
def test_learn_solver_abort_writes_nothing(tmp_path, monkeypatch, capsys, preset):
    if preset == "mugl_o":
        # every row is a permutation of 0..9, so every node's mean is exactly
        # 4.5 and the square-root term has no gradient at the start
        signals = tmp_path / "flat.csv"
        rng = np.random.default_rng(0)
        write_signals_csv(signals, np.array([rng.permutation(10) for _ in range(5)], float))
    else:
        signals = run_generate(tmp_path) / "signals.csv"
        monkeypatch.setattr(
            mugl.objective, "_gradient", lambda ctx, w, pt: np.full(w.size, math.nan)
        )
    real_point = mugl.objective._point
    evaluated = []

    def counting_point(ctx, w):
        evaluated.append(w)
        return real_point(ctx, w)

    monkeypatch.setattr(mugl.objective, "_point", counting_point)
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, {"signals": str(signals), "preset": {"name": preset}}, "learn.json")
    assert cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 5
    assert "solver abort" in capsys.readouterr().err
    assert not out.exists()
    # both aborts come from the first gradient, before any trial point
    assert len(evaluated) == 1


def test_eval_perfect_prediction(tmp_path, capsys):
    data = run_generate(tmp_path)
    cfg = write_config(tmp_path, {
        "truth": str(data / "graph.edges"),
        "predicted": str(data / "graph.edges"),
    }, "eval.json")
    assert cli.main(["eval", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["f_measure"] == 1.0
    assert record["nmi"] == 1.0
    assert record["fp"] == 0 and record["fn"] == 0


def test_eval_empty_prediction_is_degenerate(tmp_path, capsys):
    data = run_generate(tmp_path)
    empty = tmp_path / "empty.edges"
    write_edge_list(empty, np.zeros(10), 5)
    cfg = write_config(tmp_path, {
        "truth": str(data / "graph.edges"),
        "predicted": str(empty),
    }, "eval.json")
    assert cli.main(["eval", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["f_measure"] == 0.0
    assert record["degenerate"] is True


def test_eval_node_count_mismatch(tmp_path, capsys):
    data = run_generate(tmp_path)
    small = tmp_path / "small.edges"
    write_edge_list(small, np.ones(3), 3)
    cfg = write_config(tmp_path, {
        "truth": str(data / "graph.edges"),
        "predicted": str(small),
    }, "eval.json")
    out = tmp_path / "scores"
    for flags in ([], ["--out", str(out)]):
        assert cli.main(["eval", "--config", cfg, *flags]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: node-count mismatch: truth has m=5, prediction has m=3\n"
        )
    assert not (out / "metrics.json").exists()


def test_eval_writes_metrics_file(tmp_path, capsys):
    data = run_generate(tmp_path)
    cfg = write_config(tmp_path, {
        "truth": str(data / "graph.edges"),
        "predicted": str(data / "graph.edges"),
    }, "eval.json")
    out = tmp_path / "scores"
    assert cli.main(["eval", "--config", cfg, "--out", str(out)]) == 0
    on_disk = json.loads((out / "metrics.json").read_text())
    assert on_disk == json.loads(capsys.readouterr().out)


def test_eval_bad_threshold_rejected_before_any_input(tmp_path, monkeypatch, capsys):
    # learn and bench exit 2 on this threshold; eval must not exit 3 on the
    # missing truth file first
    monkeypatch.setattr(cli, "read_edge_list", _must_not_run)
    cfg = write_config(tmp_path, {
        "truth": str(tmp_path / "missing.edges"),
        "predicted": str(tmp_path / "missing.edges"),
        "threshold": 1.5,
    }, "eval.json")
    assert cli.main(["eval", "--config", cfg]) == 2
    assert "relative threshold must lie in [0, 1), got 1.5" in capsys.readouterr().err


def run_bench(tmp_path, config=BENCH_CONFIG, threads="1"):
    out = tmp_path / "bench"
    cfg = write_config(tmp_path, config, "bench.json")
    code = cli.main(["bench", "--config", cfg, "--out", str(out), "--threads", threads, "--quiet"])
    return code, out


def test_bench_deterministic_across_runs_and_threads(tmp_path):
    code_a, out_a = run_bench(tmp_path / "a")
    code_b, out_b = run_bench(tmp_path / "b")
    code_c, out_c = run_bench(tmp_path / "c", threads="4")
    assert code_a == code_b == code_c == 0
    csv_bytes = (out_a / "summary.csv").read_bytes()
    assert (out_b / "summary.csv").read_bytes() == csv_bytes
    assert (out_c / "summary.csv").read_bytes() == csv_bytes
    assert (out_b / "summary.json").read_bytes() == (out_a / "summary.json").read_bytes()


def test_bench_summary_json_matches_golden_file(tmp_path):
    # vsgl and mugl_o at rho2 = 0 are certified at their closed-form vertex
    # on the first iteration, so no solver change moves these bytes
    config = {**BENCH_CONFIG, "presets": [{"name": "vsgl"}, {"name": "mugl_o", "rho2": 0.0}]}
    code, out = run_bench(tmp_path, config)
    assert code == 0
    golden = pathlib.Path(__file__).parent / "data" / "summary_golden.json"
    assert (out / "summary.json").read_bytes() == golden.read_bytes()


def test_command_json_files_match_golden_files(tmp_path, monkeypatch, capsys):
    # vsgl is certified at its closed-form vertex on the first iteration
    # (iters 1, residual and gap 0), so no solver change moves its report;
    # relative paths keep tmp_path out of the files
    monkeypatch.chdir(tmp_path)
    configs = {
        "generate": GEN_MASTER_CONFIG,
        "learn": {"signals": "signals.csv", "preset": {"name": "vsgl"}, "trace": True},
        "eval": {"truth": "graph.edges", "predicted": "learned.edges"},
    }
    for command, config in configs.items():
        cfg = write_config(tmp_path, config, f"{command}.json")
        assert cli.main([command, "--config", cfg, "--out", ".", "--quiet"]) == 0
    golden = pathlib.Path(__file__).parent / "data"
    for name in ("provenance", "solve_report", "metrics"):
        want = (golden / f"{name}_golden.json").read_bytes()
        assert (tmp_path / f"{name}.json").read_bytes() == want
    # eval prints the record it writes
    assert capsys.readouterr().out == (tmp_path / "metrics.json").read_text()


def test_bench_fit_records_carry_the_learn_report_fields(tmp_path):
    # a bench per-fit record is the draw's metrics followed by exactly the
    # fit fields of solve_report.json, in the same order
    data = run_generate(tmp_path)
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, {
        "signals": str(data / "signals.csv"),
        "preset": {"name": "mugl_o"},
    }, "learn.json")
    assert cli.main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = list(json.loads((out / "solve_report.json").read_text()))
    context = ["version", "signals", "m", "n", "preset", "resolved"]
    assert report[:len(context)] == context
    fit_fields = report[len(context):]
    assert "kkt_residual" in fit_fields and "certified" in fit_fields
    assert "converged" not in fit_fields
    metrics = list(metric_record(np.ones(3), np.ones(3, dtype=bool)))

    code, bench = run_bench(tmp_path / "bench")
    assert code == 0
    seen = []
    for rec in json.loads((bench / "summary.json").read_text())["records"]:
        for label, entry in rec["models"].items():
            seen.append(label)
            assert list(entry) == metrics + fit_fields
            assert math.isfinite(entry["kkt_residual"]) and entry["kkt_residual"] >= 0.0
            if label == "vsgl":
                assert entry["kkt_residual"] == 0.0
    assert sorted(seen) == ["mugl_o", "mugl_o", "vsgl", "vsgl"]


def test_bench_robust_model_orders_above_baseline(tmp_path):
    # the headline synthetic comparison: robust smoothness averaged over
    # seeds recovers more edges than the plain smoothness baseline
    code, out = run_bench(tmp_path, {
        "graph": {"family": "gaussian", "m": 20},
        "signals": {"n": 80, "epsilon": 0.1},
        "presets": [{"name": "vsgl"}, {"name": "mugl_o"}],
        "n_seeds": 20,
        "seed": 0,
    })
    assert code == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    mean_f = {r["model"]: float(r["mean"]) for r in rows if r["metric"] == "f_measure"}
    assert mean_f["mugl_o"] >= mean_f["vsgl"]


def test_bench_empty_presets_rejected(tmp_path, capsys):
    code, out = run_bench(tmp_path, {**BENCH_CONFIG, "presets": []})
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config.presets must not be empty\n"
    assert not out.exists()


@pytest.mark.parametrize("section", ["graph", "signals"])
def test_bench_rejects_per_section_seeds(tmp_path, capsys, section):
    config = {**BENCH_CONFIG, section: {**BENCH_CONFIG[section], "seed": 3}}
    code, out = run_bench(tmp_path, config)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: config.{section}: per-run seeds derive from the master seed; "
        "remove 'seed' from this section\n"
    )
    assert not out.exists()


def test_bench_bad_threshold_rejected_before_first_draw(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "learn", lambda preset, X: calls.append(preset))
    code, out = run_bench(tmp_path, {**BENCH_CONFIG, "threshold": 1.5})
    assert code == 2
    assert "relative threshold must lie in [0, 1), got 1.5" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("generate", GEN_CONFIG),
    ("bench", BENCH_CONFIG),
])
def test_negative_master_seed_is_named(tmp_path, command, config, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config)
    code = cli.main([command, "--config", cfg, "--out", str(out), "--seed", "-1", "--quiet"])
    assert code == 2
    assert "master seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, seed, message", [
    ("generate", "not-a-seed", "must be a finite number, got 'not-a-seed'"),
    ("generate", 2.5, "must be an integer, got 2.5"),
    ("bench", "not-a-seed", "must be a finite number, got 'not-a-seed'"),
    ("bench", 2.5, "must be an integer, got 2.5"),
    ("bench", None, "must be a finite number, got None"),
], ids=["generate_string", "generate_fraction", "bench_string", "bench_fraction", "bench_null"])
@pytest.mark.parametrize("flag", [(), ("--seed", "3")], ids=["config", "flag"])
def test_invalid_config_seed_is_config_error(tmp_path, monkeypatch, capsys, command, seed,
                                             message, flag):
    # --seed replaces a config seed only after it is decoded, as --out does 'out'
    monkeypatch.chdir(tmp_path)
    config = {"generate": GEN_MASTER_CONFIG, "bench": BENCH_CONFIG}[command]
    write_config(tmp_path, {**config, "seed": seed})
    assert cli.main([command, "--config", "config.json", "--out", "out", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config.seed {message}\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_bench_all_failures_exit_code(tmp_path, monkeypatch, capsys):
    def always_fail(preset, X):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "learn", always_fail)
    code, out = run_bench(tmp_path)
    assert code == 7
    assert capsys.readouterr().err == "error: every seed failed for every preset\n"
    # artifacts are still written so the failures can be inspected
    doc = json.loads((out / "summary.json").read_text())
    assert len(doc["failures"]) == 4


def test_invalid_thread_count(tmp_path, capsys):
    code, _ = run_bench(tmp_path, threads="0")
    assert code == 2
    assert "--threads" in capsys.readouterr().err


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    for line in (
        "or a malformed signals CSV or edge list",
        "4  learn hit the iteration cap",
        "7  bench: every seed failed",
    ):
        assert line in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("mugl ")


SRC = pathlib.Path(mugl.__file__).resolve().parent.parent

# m(m-1)/2 pair weights at m = 10^9 need 3.47 EiB, which numpy refuses
# without touching memory.  Only ER graphs and edge-list headers are used at
# this size: a Gaussian graph first draws an m x 2 coordinate array (16 GB).
TOO_LARGE_M = 1_000_000_000


def _python_m_case(tmp_path, case):
    """argv after ``python -m mugl`` for one exit-code case."""
    out = str(tmp_path / "out")
    if case == "version":
        return ["--version"]
    if case == "unknown_key":
        config = {**GEN_CONFIG, "graph": {**GEN_CONFIG["graph"], "prob": 0.5}}
        return ["generate", "--config", write_config(tmp_path, config), "--out", out]
    if case == "missing_signals":
        config = {"signals": str(tmp_path / "absent.csv"), "preset": {"name": "vsgl"}}
        return ["learn", "--config", write_config(tmp_path, config), "--out", out]
    if case == "bad_alpha_missing_signals":
        preset = {"name": "mugl_l", "alpha": 0}
        config = {"signals": str(tmp_path / "absent.csv"), "preset": preset}
        return ["learn", "--config", write_config(tmp_path, config), "--out", out]
    if case == "generate_section_seeds":
        return ["generate", "--config", write_config(tmp_path, GEN_CONFIG), "--out", out,
                "--seed", "5"]
    if case == "m_mismatch":
        truth, pred = tmp_path / "truth.edges", tmp_path / "pred.edges"
        write_edge_list(truth, np.ones(3), 3)
        write_edge_list(pred, np.ones(6), 4)
        config = {"truth": str(truth), "predicted": str(pred)}
        return ["eval", "--config", write_config(tmp_path, config), "--out", out]
    if case in ("out_is_a_file", "out_under_a_file", "config_under_a_file"):
        # a plain file where a directory is expected
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = write_config(tmp_path, GEN_CONFIG)
        if case == "out_is_a_file":
            return ["generate", "--config", config, "--out", str(blocker)]
        if case == "out_under_a_file":
            return ["generate", "--config", config, "--out", str(blocker / "sub")]
        return ["generate", "--config", str(blocker / "x.json"), "--out", out]
    if case == "generate_too_large":
        config = {**GEN_CONFIG, "graph": {"family": "er", "m": TOO_LARGE_M, "seed": 2}}
        return ["generate", "--config", write_config(tmp_path, config), "--out", out]
    if case == "eval_too_large":
        huge = tmp_path / "huge.edges"
        huge.write_text(f"# m={TOO_LARGE_M}\n2 1 1.0\n")
        config = {"truth": str(huge), "predicted": str(huge)}
        return ["eval", "--config", write_config(tmp_path, config), "--out", out]
    if case == "bench_too_large":
        config = {**BENCH_CONFIG, "graph": {"family": "er", "m": TOO_LARGE_M}}
        return ["bench", "--config", write_config(tmp_path, config), "--out", out]
    raise AssertionError(case)


def _cap_address_space():
    # a regression that really allocates fails here instead of on the machine
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("case, code", [
    ("version", 0),
    ("unknown_key", 2),
    ("missing_signals", 3),
    ("out_is_a_file", 3),
    ("out_under_a_file", 3),
    ("config_under_a_file", 3),
    ("bad_alpha_missing_signals", 2),
    ("generate_section_seeds", 2),
    ("m_mismatch", 6),
    ("generate_too_large", 2),
    ("eval_too_large", 2),
    ("bench_too_large", 2),
])
def test_python_m_mugl_exit_codes(tmp_path, case, code):
    argv = _python_m_case(tmp_path, case)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mugl", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if code:
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_learn_report_that_cannot_be_written_writes_nothing(tmp_path):
    # The covariance of these signals is finite (about 1e302), but the
    # objective overflows, so the solve report holds inf, which JSON refuses.
    # In-process, the suite's warnings-as-errors setting would stop the fit
    # at the overflow warning instead.
    signals = tmp_path / "signals.csv"
    write_signals_csv(signals, np.random.default_rng(0).standard_normal((5, 20)) * 1e151)
    config = {"signals": str(signals), "preset": {"name": "log_model"}}
    fit = tmp_path / "out" / "fit"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mugl", "learn", "--config", write_config(tmp_path, config),
         "--out", str(fit)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert result.stderr.splitlines()[-1] == (
        "error: Out of range float values are not JSON compliant: inf")
    assert not (tmp_path / "out").exists()
