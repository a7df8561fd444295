import math

import numpy as np
import pytest

import mugl.objective
from mugl import cli, harness, solvers
from mugl.datagen import GraphSpec, SignalSpec, gen_graph, gen_signals
from mugl.laplacian import edge_count, expand
from mugl.moments import empirical_moments, rho1_radius, rho2_radius
from mugl.objective import build_context, objective_value
from oracles import is_laplacian

SMALL_GRAPH = GraphSpec("er", 5, seed=0, p=0.5)
SMALL_SIGNALS = SignalSpec(n=20, epsilon=0.1, seed=0)


def small_instance(graph_seed, signal_seed, m=5):
    graph = gen_graph(GraphSpec("er", m, seed=graph_seed, p=0.5))
    X = gen_signals(graph.laplacian, SignalSpec(n=30, epsilon=0.1, seed=signal_seed))
    return graph, X


def test_preset_validation():
    with pytest.raises(ValueError, match="unknown preset"):
        harness.ModelPreset("mugl_x")
    for name in ("vsgl", "log_model"):
        with pytest.raises(ValueError, match="non-robust"):
            harness.ModelPreset(name, rho1=1.0)
        with pytest.raises(ValueError, match="non-robust"):
            harness.ModelPreset(name, rho2=0.5)
        harness.ModelPreset(name, rho1=0.0, rho2=0.0)  # explicit zeros are fine
    with pytest.raises(ValueError, match="nonnegative"):
        harness.ModelPreset("mugl_o", rho1=-0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        harness.ModelPreset("mugl_l", rho2=float("nan"))
    for name, field in [("mugl_o", "rho1"), ("mugl_l", "rho2"), ("mugl_l", "alpha"),
                        ("log_model", "quad_weight")]:
        with pytest.raises(ValueError, match=f"{field} must be finite, got inf"):
            harness.ModelPreset(name, **{field: math.inf})


def test_preset_rejects_alpha_without_a_barrier():
    for name in ("mugl_o", "vsgl"):
        with pytest.raises(ValueError, match=f"{name} has no barrier; alpha"):
            harness.ModelPreset(name, alpha=0.3)
        harness.ModelPreset(name, alpha=harness.DEFAULT_ALPHA)
    for name in ("mugl_l", "log_model"):
        assert harness.ModelPreset(name, alpha=0.3).alpha == 0.3


def test_preset_rejects_a_barrier_or_penalty_weight_out_of_range():
    # a zero alpha would silently drop the barrier, since the coefficient is its switch
    for name in ("mugl_l", "log_model"):
        for alpha in (0.0, -0.5):
            with pytest.raises(ValueError, match=f"{name}'s log-degree barrier needs alpha > 0"):
                harness.ModelPreset(name, alpha=alpha)
    with pytest.raises(ValueError, match="quad_weight must be nonnegative, got -1"):
        harness.ModelPreset("log_model", quad_weight=-1.0)
    assert harness.ModelPreset("log_model", quad_weight=0.0).quad_weight == 0.0


def test_preset_rejects_quad_weight_outside_log_model():
    for name in ("mugl_o", "mugl_l", "vsgl"):
        with pytest.raises(ValueError, match=f"quad_weight; omit it for {name}"):
            harness.ModelPreset(name, quad_weight=2.0)
        harness.ModelPreset(name, quad_weight=harness.DEFAULT_QUAD_WEIGHT)
    assert harness.ModelPreset("log_model", quad_weight=2.0).quad_weight == 2.0


def test_preset_rejects_radius_params_on_non_robust_presets():
    params = harness.RadiusParams(delta=0.01)
    for name in ("vsgl", "log_model"):
        with pytest.raises(ValueError, match="non-robust; radius_params"):
            harness.ModelPreset(name, radius_params=params)
        harness.ModelPreset(name, radius_params=harness.RadiusParams())
    for name in ("mugl_o", "mugl_l"):
        assert harness.ModelPreset(name, radius_params=params).radius_params == params


def test_preset_flags():
    assert harness.ModelPreset("mugl_l").uses_barrier
    assert harness.ModelPreset("log_model").uses_barrier
    assert not harness.ModelPreset("mugl_o").uses_barrier
    assert not harness.ModelPreset("vsgl").uses_barrier
    assert harness.ModelPreset("vsgl").label == "vsgl"
    assert harness.ModelPreset("vsgl", label="baseline").label == "baseline"


def test_resolve_config_per_preset():
    _, X = small_instance(11, 12, m=8)
    mom = empirical_moments(X)

    plain = harness.resolve_config(harness.ModelPreset("vsgl"), mom, 8)
    assert plain.rho1 == 0.0 and plain.rho2 == 0.0
    assert plain.alpha == 0.0 and plain.quad_weight == 0.0
    assert plain.s == 8.0

    log = harness.resolve_config(harness.ModelPreset("log_model"), mom, 8)
    assert log.alpha == harness.DEFAULT_ALPHA
    assert log.quad_weight == harness.DEFAULT_QUAD_WEIGHT

    barrier = harness.resolve_config(harness.ModelPreset("mugl_l"), mom, 8)
    assert barrier.alpha == harness.DEFAULT_ALPHA
    assert barrier.quad_weight == 0.0  # squared penalty belongs to log_model only

    explicit = harness.resolve_config(harness.ModelPreset("mugl_o", rho1=0.3, rho2=0.7), mom, 8)
    assert explicit.rho1 == 0.3 and explicit.rho2 == 0.7 and explicit.alpha == 0.0

    auto = harness.resolve_config(harness.ModelPreset("mugl_o"), mom, 8)
    params = harness.ModelPreset("mugl_o").radius_params
    assert auto.rho1 == rho1_radius(params, mom.n)
    assert auto.rho2 == rho2_radius(params, np.linalg.eigvalsh(mom.cov)[-1], 8, mom.n)


def test_explicit_rho2_skips_the_spectral_norm(monkeypatch):
    # only the covariance radius reads sigma, so a preset with an explicit
    # rho2 never takes an eigenvalue, even where rho1 comes from the formula
    _, X = small_instance(11, 12, m=8)
    calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(1)
        return real_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for preset in (
        harness.ModelPreset("mugl_l", rho1=0.5, rho2=1.0),
        harness.ModelPreset("mugl_o", rho2=1.0),
    ):
        config, report = harness.learn(preset, X)
        assert config.rho2 == 1.0
        assert report.certified
    assert calls == []
    # the formula rho2 takes exactly one
    harness.learn(harness.ModelPreset("mugl_o"), X)
    assert calls == [1]


def test_zero_radius_robust_preset_matches_baseline():
    graph = gen_graph(GraphSpec("gaussian", 8, seed=11))
    X = gen_signals(graph.laplacian, SignalSpec(n=40, epsilon=0.1, seed=12))
    _, robust = harness.learn(harness.ModelPreset("mugl_o", rho1=0.0, rho2=0.0), X)
    _, plain = harness.learn(harness.ModelPreset("vsgl"), X)
    assert np.array_equal(robust.w_final, plain.w_final)
    assert robust.objective_trace[-1] == plain.objective_trace[-1]


@pytest.mark.parametrize("graph_seed", [2, 3, 4])
def test_vsgl_finds_linear_argmin_vertex(graph_seed):
    # with both radii zero and no barrier or penalty the objective is linear in w,
    # so the simplex minimizer is the vertex of the smallest coefficient
    _, X = small_instance(graph_seed, graph_seed + 100)
    resolved, report = harness.learn(harness.ModelPreset("vsgl"), X)
    mom = empirical_moments(X)
    config = harness.resolve_config(harness.ModelPreset("vsgl"), mom, 5)
    assert resolved == config
    ctx = build_context(mom, config)
    vertex = np.zeros(edge_count(5))
    vertex[np.argmin(ctx.quad_coeff)] = config.s
    assert np.array_equal(report.w_final, vertex)


@pytest.mark.parametrize("n", [80, 320, 1280])
def test_mugl_o_without_rho2_is_solved_at_its_best_vertex(n):
    # rho2 = 0 and no barrier or penalty leave a linear plus concave
    # objective, minimized over the simplex at a vertex; the line search
    # from five starts ends no lower (and on 2 of these 30 draws, higher)
    for graph_seed, signal_seed in harness.run_seeds(1234, 10):
        graph = gen_graph(GraphSpec("gaussian", 20, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=n, epsilon=0.1, seed=signal_seed))
        config, report = harness.learn(harness.ModelPreset("mugl_o", rho2=0.0), X)
        assert config.rho1 > 0.0
        assert (report.iters, report.kkt_residual, report.gap) == (1, 0.0, 0.0)
        assert np.count_nonzero(report.w_final) == 1
        ctx = build_context(empirical_moments(X), config)
        starts = np.random.default_rng(signal_seed).dirichlet(np.ones(190), size=4) * 20.0
        best = min(
            solvers.ls_pgd_solve(ctx, w0).objective_trace[-1]
            for w0 in (np.full(190, 20.0 / 190), *starts)
        )
        assert report.objective_trace[-1] <= best


def test_constant_means_without_rho2_are_nonsmooth_at_the_vertex():
    # integer rows that sum to zero have means of exactly 0.0, so the
    # square-root term vanishes everywhere and has no gradient at any vertex
    X = np.random.default_rng(5).integers(-5, 6, size=(6, 30)).astype(float)
    X[:, -1] = -X[:, :-1].sum(axis=1)
    assert not empirical_moments(X).mean.any()
    with pytest.raises(mugl.objective.NonsmoothPointError):
        harness.learn(harness.ModelPreset("mugl_o", rho2=0.0), X)


def test_log_model_starts_agree():
    graph = gen_graph(GraphSpec("gaussian", 8, seed=11))
    X = gen_signals(graph.laplacian, SignalSpec(n=40, epsilon=0.1, seed=12))
    mom = empirical_moments(X)
    config = harness.resolve_config(harness.ModelPreset("log_model"), mom, 8)
    ctx = build_context(mom, config)
    mbar = edge_count(8)
    centroid = np.full(mbar, config.s / mbar)
    u = np.random.default_rng(5).uniform(0.5, 1.5, mbar)
    skewed = config.s * u / u.sum()
    a = solvers.ls_pgd_solve(ctx, centroid, solvers.SolverOptions())
    b = solvers.ls_pgd_solve(ctx, skewed, solvers.SolverOptions())
    assert abs(a.objective_trace[-1] - b.objective_trace[-1]) <= 1e-6


def test_robust_objective_exceeds_plain_at_baseline_solution():
    # positive radii can only add to the objective, strictly so for the
    # Frobenius term since no simplex point has a zero Laplacian
    graph = gen_graph(GraphSpec("gaussian", 8, seed=11))
    X = gen_signals(graph.laplacian, SignalSpec(n=40, epsilon=0.1, seed=12))
    mom = empirical_moments(X)
    _, plain_report = harness.learn(harness.ModelPreset("vsgl"), X)
    w = plain_report.w_final
    ctx_plain = build_context(mom, harness.resolve_config(harness.ModelPreset("vsgl"), mom, 8))
    ctx_robust = build_context(mom, harness.resolve_config(harness.ModelPreset("mugl_o"), mom, 8))
    assert objective_value(ctx_robust, w) > objective_value(ctx_plain, w)


@pytest.mark.parametrize("name", harness.PRESET_NAMES)
def test_learn_returns_resolved_config(name):
    # learn resolves the config once and hands it back; the weights it
    # learns expand to a Laplacian of trace 2m
    _, X = small_instance(1, 9, m=6)
    preset = harness.ModelPreset(name)
    config, report = harness.learn(preset, X)
    assert config == harness.resolve_config(preset, empirical_moments(X), 6)
    L = expand(report.w_final, 6)
    assert is_laplacian(L)
    assert np.trace(L) == pytest.approx(12.0)


def test_run_seeds_schedule():
    pairs = harness.run_seeds(42, 6)
    assert len(pairs) == 6
    assert len(set(pairs)) == 6
    assert harness.run_seeds(42, 6) == pairs
    assert harness.run_seeds(42, 3) == pairs[:3]  # prefix-stable
    assert harness.run_seeds(43, 6) != pairs


def test_run_experiment_deterministic_and_thread_invariant():
    presets = [harness.ModelPreset("vsgl"), harness.ModelPreset("mugl_o")]
    args = (SMALL_GRAPH, SMALL_SIGNALS, presets)
    first = harness.run_experiment(*args, n_seeds=2, master_seed=7)
    again = harness.run_experiment(*args, n_seeds=2, master_seed=7)
    threaded = harness.run_experiment(*args, n_seeds=2, master_seed=7, threads=4)
    doc = cli.dumps(first)
    assert cli.dumps(again) == doc
    assert cli.dumps(threaded) == doc


def test_single_seed_has_zero_spread():
    summary = harness.run_experiment(
        SMALL_GRAPH, SMALL_SIGNALS, [harness.ModelPreset("vsgl")], n_seeds=1, master_seed=3
    )
    assert all(row["normalized_std_percent"] == 0.0 for row in summary["stats"])
    assert all(row["n_seeds"] == 1 for row in summary["stats"])


def test_stats_recomputable_from_records():
    presets = [harness.ModelPreset("vsgl"), harness.ModelPreset("mugl_o")]
    summary = harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, presets, n_seeds=3, master_seed=5)
    for row in summary["stats"]:
        vals = np.array([
            rec["models"][row["model"]][row["metric"]]
            for rec in summary["records"]
            if "error" not in rec["models"][row["model"]]
        ])
        assert row["n_seeds"] == vals.size
        assert row["mean"] == pytest.approx(vals.mean(), abs=1e-15)
        want_spread = 100.0 * vals.std() / vals.mean() if vals.mean() != 0 else 0.0
        assert row["normalized_std_percent"] == pytest.approx(want_spread, abs=1e-12)


def test_summary_counts_capped_fits():
    capped = harness.ModelPreset(
        "mugl_l", label="capped", solver=solvers.SolverOptions(max_iters=1)
    )
    # tol_kkt=0 cannot be met, so the fit runs until its fallback search
    # stalls and stops on step_tol, uncertified
    early = harness.ModelPreset(
        "mugl_l", label="early", solver=solvers.SolverOptions(tol_kkt=0.0)
    )
    presets = [harness.ModelPreset("vsgl"), harness.ModelPreset("mugl_l"), capped, early]
    summary = harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, presets, n_seeds=3, master_seed=5)
    assert all(rec["models"]["capped"]["termination"] == "max_iters" for rec in summary["records"])
    assert all(rec["models"]["early"]["termination"] == "step_tol" for rec in summary["records"])
    assert all(rec["models"]["mugl_l"]["termination"] == "kkt_tol" for rec in summary["records"])
    n_capped = {row["model"]: row["n_capped"] for row in summary["stats"]}
    assert n_capped == {"vsgl": 0, "mugl_l": 0, "capped": 3, "early": 0}
    tol_kkt = {preset.label: preset.solver.tol_kkt for preset in presets}
    for rec in summary["records"]:
        for label, entry in rec["models"].items():
            assert entry["certified"] is (entry["kkt_residual"] <= tol_kkt[label])
    n_uncertified = {row["model"]: row["n_uncertified"] for row in summary["stats"]}
    assert n_uncertified == {"vsgl": 0, "mugl_l": 0, "capped": 3, "early": 3}


def test_stalled_fit_is_scored_and_counted_uncertified(stalled_line_search):
    # a fit whose fallback search accepts no trial returns on step_tol at its
    # start: it is scored like any fit and flagged, not counted as a failure
    presets = [harness.ModelPreset("vsgl"), harness.ModelPreset("mugl_o")]
    summary = harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, presets, n_seeds=2, master_seed=7)
    assert summary["failures"] == []
    for rec in summary["records"]:
        entry = rec["models"]["mugl_o"]
        assert entry["termination"] == "step_tol" and entry["iters"] == 1
        assert entry["certified"] is False
        assert math.isfinite(entry["f_measure"])
    n_uncertified = {row["model"]: row["n_uncertified"] for row in summary["stats"]}
    assert n_uncertified == {"vsgl": 0, "mugl_o": 2}


def test_records_carry_the_gap():
    presets = [harness.ModelPreset("vsgl"), harness.ModelPreset("mugl_l")]
    summary = harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, presets, n_seeds=2, master_seed=5)
    for rec in summary["records"]:
        assert rec["models"]["vsgl"]["gap"] == 0.0
        assert rec["models"]["mugl_l"]["gap"] >= -1e-12
        # backtracks sit beside iters; the exact vertex solve takes none
        assert rec["models"]["vsgl"]["backtracks"] == 0
        assert type(rec["models"]["mugl_l"]["backtracks"]) is int
        assert rec["models"]["mugl_l"]["backtracks"] >= 0


def test_summary_csv_matches_golden_file(tmp_path):
    presets = [harness.ModelPreset("vsgl"), harness.ModelPreset("mugl_o")]
    summary = harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, presets, n_seeds=2, master_seed=7)
    out = tmp_path / "summary.csv"
    harness.write_summary_csv(out, summary["stats"])
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "summary_golden.csv"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("error", [RuntimeError, np.linalg.LinAlgError],
                         ids=["RuntimeError", "LinAlgError"])
def test_solver_failure_skips_one_seed_only(monkeypatch, error):
    real_learn = harness.learn
    calls = []

    def flaky_learn(preset, X):
        calls.append(preset.label)
        if len(calls) == 2:  # seed 0, second preset
            raise error("synthetic solver failure")
        return real_learn(preset, X)

    monkeypatch.setattr(harness, "learn", flaky_learn)
    presets = [harness.ModelPreset("vsgl"), harness.ModelPreset("mugl_o")]
    summary = harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, presets, n_seeds=2, master_seed=7)
    assert summary["failures"] == [
        {"seed_index": 0, "model": "mugl_o", "error": "synthetic solver failure"}
    ]
    by_model = {(row["model"], row["metric"]): row["n_seeds"] for row in summary["stats"]}
    assert by_model[("vsgl", "f_measure")] == 2
    assert by_model[("mugl_o", "f_measure")] == 1


def test_non_finite_gradient_fails_one_fit_only(monkeypatch):
    real_gradient = mugl.objective._gradient
    real_point = mugl.objective._point
    barrier_values = []

    def poisoned_gradient(ctx, w, pt):
        g = real_gradient(ctx, w, pt)
        return np.full_like(g, np.nan) if ctx.config.alpha > 0 else g

    def counting_point(ctx, w):
        if ctx.config.alpha > 0:
            barrier_values.append(w)
        return real_point(ctx, w)

    monkeypatch.setattr(mugl.objective, "_gradient", poisoned_gradient)
    monkeypatch.setattr(mugl.objective, "_point", counting_point)
    presets = [harness.ModelPreset("mugl_o"), harness.ModelPreset("mugl_l")]
    summary = harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, presets, n_seeds=2, master_seed=7)
    assert [(f["seed_index"], f["model"]) for f in summary["failures"]] == [(0, "mugl_l"), (1, "mugl_l")]
    # each mugl_l fit aborts at its first gradient, having evaluated only w0
    assert len(barrier_values) == 2
    assert all("non-finite gradient" in f["error"] for f in summary["failures"])
    by_model = {(row["model"], row["metric"]): row["n_seeds"] for row in summary["stats"]}
    assert by_model[("mugl_o", "f_measure")] == 2


def assert_every_cell_scored_or_failed(summary):
    """Each (seed, preset) cell holds a metric entry or an error entry, and
    the failures list and stats rows agree with the cells."""
    labels = [p["label"] for p in summary["presets"]]
    failed = []
    for rec in summary["records"]:
        assert list(rec["models"]) == labels
        for label, entry in rec["models"].items():
            if "error" in entry:
                failed.append((rec["seed_index"], label))
            else:
                assert all(np.isfinite(entry[metric]) for metric in harness.SUMMARY_METRICS)
    assert [(f["seed_index"], f["model"]) for f in summary["failures"]] == failed
    for row in summary["stats"]:
        n_failed = sum(label == row["model"] for _, label in failed)
        assert row["n_seeds"] == summary["n_seeds"] - n_failed


ALL_PRESETS = [harness.ModelPreset(name) for name in harness.PRESET_NAMES]


def test_run_experiment_on_disconnected_truths():
    sparse = GraphSpec("er", 20, seed=0, p=0.05)
    signals = SignalSpec(n=80, epsilon=0.1, seed=0)
    summary = harness.run_experiment(sparse, signals, ALL_PRESETS, n_seeds=4, master_seed=0)
    assert not all(rec["connected"] for rec in summary["records"])
    assert_every_cell_scored_or_failed(summary)


def test_run_experiment_with_fewer_signals_than_nodes():
    # n < m: the sample covariance is singular, yet every fit finishes
    graph = GraphSpec("er", 20, seed=0)
    few = SignalSpec(n=5, epsilon=0.1, seed=0)
    summary = harness.run_experiment(graph, few, ALL_PRESETS, n_seeds=6, master_seed=0)
    assert_every_cell_scored_or_failed(summary)
    assert summary["failures"] == []


def test_run_experiment_input_validation():
    with pytest.raises(ValueError, match="at least one preset"):
        harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, [], n_seeds=1)
    with pytest.raises(ValueError, match="at least one seed"):
        harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, [harness.ModelPreset("vsgl")], n_seeds=0)
    twins = [harness.ModelPreset("vsgl"), harness.ModelPreset("vsgl")]
    with pytest.raises(ValueError, match="unique"):
        harness.run_experiment(SMALL_GRAPH, SMALL_SIGNALS, twins, n_seeds=1)
    with pytest.raises(ValueError, match="master seed must be nonnegative, got -1"):
        harness.run_experiment(
            SMALL_GRAPH, SMALL_SIGNALS, [harness.ModelPreset("vsgl")], n_seeds=1, master_seed=-1
        )
    for threads in (0, -3):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            harness.run_experiment(
                SMALL_GRAPH, SMALL_SIGNALS, [harness.ModelPreset("vsgl")], n_seeds=1, threads=threads
            )


def test_summary_doc_is_serializable():
    summary = harness.run_experiment(
        SMALL_GRAPH, SMALL_SIGNALS, [harness.ModelPreset("vsgl")], n_seeds=1, master_seed=0
    )
    text = cli.dumps(summary)
    assert '"master_seed": 0' in text
    assert summary["presets"][0]["label"] == "vsgl"
