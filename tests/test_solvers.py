import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mugl.objective
import mugl.solvers
from mugl.datagen import GraphSpec, SignalSpec, gen_graph, gen_signals
from mugl.evaluation import binarize
from mugl.harness import ModelPreset, learn, resolve_config, run_seeds
from mugl.laplacian import degrees, validate_simplex
from mugl.moments import EmpiricalMoments, empirical_moments
from mugl.objective import (
    BarrierDomainError,
    InfeasiblePointError,
    ModelConfig,
    NonsmoothPointError,
    build_context,
    objective_value,
)
from mugl.solvers import (
    MAX_BACKTRACKS,
    SPECTRAL_STEP_MAX,
    SPECTRAL_STEP_MIN,
    LineSearchStallError,
    SolverOptions,
    is_concave,
    ls_pgd_solve,
    project_simplex,
    spectral_step,
    vertex_solve,
)
from oracles import (
    project_simplex_bruteforce,
    project_simplex_reference,
    random_interior,
    stationarity_residual,
)


def generic_context(seed=101, m=5, n=12, **config_kwargs):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n)) + rng.standard_normal((m, 1))
    return build_context(empirical_moments(X), ModelConfig(**config_kwargs))


def test_project_simplex_examples():
    assert np.allclose(project_simplex(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    assert np.allclose(project_simplex(np.array([0.6, 0.6]), 1.0), [0.5, 0.5])


def test_project_simplex_validation():
    with pytest.raises(ValueError):
        project_simplex(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        project_simplex(np.zeros((2, 2)), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_project_simplex_rejects_non_finite_entries(bad):
    v = np.array([0.2, 0.5, 0.1, 0.3])
    v[2] = bad
    with pytest.raises(ValueError, match=r"non-finite entries: v\[2\]="):
        project_simplex(v, 1.0)


def test_project_simplex_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(200):
        size = int(rng.integers(1, 6))
        v = rng.uniform(-3, 3, size)
        s = float(rng.uniform(0.2, 4.0))
        got = project_simplex(v, s)
        want = project_simplex_bruteforce(v, s)
        assert np.abs(got - want).max() <= 1e-9


def test_project_simplex_idempotent_and_exact_sum():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(30) * 10
        s = 3.0
        w = project_simplex(v, s)
        assert validate_simplex(w, s)
        assert w.sum() == pytest.approx(s, abs=1e-12)
        assert np.abs(project_simplex(w, s) - w).max() <= 1e-12


def test_project_simplex_optimality():
    rng = np.random.default_rng(13)
    v = rng.standard_normal(8)
    s = 1.0
    w = project_simplex(v, s)
    dist = np.linalg.norm(w - v)
    for _ in range(1000):
        z = rng.random(8)
        z *= s / z.sum()
        assert dist <= np.linalg.norm(z - v) + 1e-12


@given(
    v=hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(-100, 100)),
    s=st.floats(0.1, 10.0),
)
def test_project_simplex_always_feasible(v, s):
    w = project_simplex(v, s)
    assert validate_simplex(w, s)
    assert np.abs(project_simplex(w, s) - w).max() <= 1e-12


# A small pool of values makes ties, signed zeros and exact cancellations
# common; the wide floats cover everything else.
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.5, 1e-300, -1e-300]),
    st.floats(-1e3, 1e3),
)
_PROJECTION_INPUTS = st.one_of(
    hnp.arrays(np.float64, st.integers(1, 40), elements=_ENTRY),
    st.builds(lambda x, p: np.full(p, x), _ENTRY, st.integers(1, 40)),
    st.builds(
        lambda x, k, p: np.where(np.arange(p) == k % p, x, 0.0),
        _ENTRY, st.integers(0, 39), st.integers(1, 40),
    ),
)


@settings(max_examples=400)
@given(v=_PROJECTION_INPUTS, s=st.floats(1e-3, 1e3))
def test_project_simplex_matches_reference_bitwise(v, s):
    before = v.tobytes()
    got = project_simplex(v, s)
    assert got.tobytes() == project_simplex_reference(v, s).tobytes()
    assert v.tobytes() == before


def test_project_simplex_matches_reference_bitwise_at_scale():
    # the m=300 shape, as the solver sees it: a gradient step off a sparse
    # iterate, with coarse values so many entries tie
    rng = np.random.default_rng(17)
    p, s = 44_850, 300.0
    for _ in range(5):
        w = np.where(rng.random(p) < 0.05, rng.exponential(s / (0.05 * p), p), 0.0)
        v = np.round(w - 0.1 * rng.standard_normal(p), 3)
        assert project_simplex(v, s).tobytes() == project_simplex_reference(v, s).tobytes()


def test_projected_step_predicts_a_decrease_up_to_round_off():
    # The projection theorem gives g @ v <= -||v||^2 / eta for any g, where
    # v = project(w - eta * g) - w, so Gamma = g @ v + ||v||^2 / (2 eta) <= 0.
    # As computed, each v_k passes through four roundings (forming
    # w_k - eta * g_k, subtracting the threshold, renormalizing the mass,
    # subtracting w_k), each of order eps * (|w_k| + |w_k - eta * g_k|).
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for _ in range(5000):
        p = int(rng.integers(1, 61))
        s = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
        shape = rng.integers(3)
        if shape == 0:  # interior
            w = rng.dirichlet(np.ones(p)) * s
        elif shape == 1:  # a vertex
            w = np.zeros(p)
            w[rng.integers(p)] = s
        else:  # a face: about half the entries zero, their mass on one entry
            w = rng.dirichlet(np.ones(p)) * s
            w[rng.random(p) < 0.5] = 0.0
            w[rng.integers(p)] += s - w.sum()
        bound_g = math.exp(rng.uniform(math.log(1e-6), math.log(1e3)))
        g = rng.uniform(-bound_g, bound_g, p)
        if rng.random() < 0.3:
            # a common offset: the projection ignores it, Gamma does not
            g = np.clip(g + rng.uniform(-1e3, 1e3), -1e3, 1e3)
        eta = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        moved = w - eta * g
        v = project_simplex(moved, s) - w
        gamma = float(g @ v) + float(v @ v) / (2.0 * eta)
        assert gamma <= 4.0 * eps * float(np.abs(g) @ (np.abs(w) + np.abs(moved)))


def test_solver_options_validation():
    for kwargs in [
        {"max_iters": 0},
        {"tol_step": -1.0},
        {"tol_kkt": -1.0},
        {"tol_step": math.nan},
        {"tol_kkt": math.nan},
    ]:
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)
    # the steps and the Armijo constants are module constants, not options
    assert [f.name for f in fields(SolverOptions)] == ["max_iters", "tol_step", "tol_kkt"]


def test_pgd_linear_objective_finds_argmin_vertex():
    ctx = generic_context(101, s=1.0)
    report = ls_pgd_solve(ctx, np.full(10, 0.1))
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 1.0
    assert np.array_equal(report.w_final, vertex)
    assert report.converged


def test_spectral_step_rule(monkeypatch):
    # a fallback distinct from every computed step; ETA_MAX is read per call
    monkeypatch.setattr(mugl.solvers, "ETA_MAX", 0.7)
    s_k = np.array([0.5, -0.5])
    assert spectral_step(s_k, 2.0 * s_k, True) == pytest.approx(0.5)
    # no curvature (linear objective) or negative curvature: fall back
    assert spectral_step(s_k, np.zeros(2), True) == 0.7
    assert spectral_step(s_k, -s_k, True) == 0.7
    assert spectral_step(s_k, 1e-14 * s_k, True) == SPECTRAL_STEP_MAX
    assert spectral_step(s_k, 1e14 * s_k, True) == SPECTRAL_STEP_MIN


def test_short_spectral_step_rule(monkeypatch):
    monkeypatch.setattr(mugl.solvers, "ETA_MAX", 0.7)
    s_k = np.array([1.0, 0.0])
    y_k = np.array([1.0, 1.0])
    # s @ y = 1, y @ y = 2, s @ s = 1: the short step is half the long one
    assert spectral_step(s_k, y_k, False) == 0.5
    assert spectral_step(s_k, y_k, True) == 1.0
    # no, orthogonal or negative curvature (y = 0 included): fall back
    assert spectral_step(s_k, np.zeros(2), False) == 0.7
    assert spectral_step(s_k, np.array([0.0, 1.0]), False) == 0.7
    assert spectral_step(s_k, -s_k, False) == 0.7
    assert spectral_step(s_k, 1e-14 * s_k, False) == SPECTRAL_STEP_MAX
    assert spectral_step(s_k, 1e14 * s_k, False) == SPECTRAL_STEP_MIN
    rng = np.random.default_rng(23)
    for _ in range(100):
        s_k, y_k = rng.standard_normal((2, 6))
        if s_k @ y_k > 0:
            assert spectral_step(s_k, y_k, False) <= spectral_step(s_k, y_k, True)


def test_linear_instance_takes_fallback_step(monkeypatch):
    # the gradient is constant, so y = 0 and every step is ETA_MAX
    ctx = generic_context(101, s=1.0)
    steps = []

    def spy(s_k, y_k, long):
        assert not np.any(y_k)
        steps.append(spectral_step(s_k, y_k, long))
        return steps[-1]

    monkeypatch.setattr(mugl.solvers, "spectral_step", spy)
    monkeypatch.setattr(mugl.solvers, "ETA_MAX", 0.25)
    report = ls_pgd_solve(ctx, np.full(10, 0.1))
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 1.0
    assert report.converged
    assert np.array_equal(report.w_final, vertex)
    assert steps and all(step == 0.25 for step in steps)


def test_pgd_uniform_gradient_is_fixed_point():
    # cov = I and zero mean give a constant gradient along the all-ones
    # direction, which simplex projection undoes
    mom = EmpiricalMoments(np.zeros(4), np.eye(4), 10)
    ctx = build_context(mom, ModelConfig(s=2.0))
    w0 = random_interior(np.random.default_rng(17), 6, 2.0)
    report = ls_pgd_solve(ctx, w0)
    assert report.iters == 1
    assert report.termination == "kkt_tol"
    assert np.allclose(report.w_final, w0, atol=1e-12)


def test_pgd_short_run_matches_tight_reference():
    ctx = generic_context(101, rho2=0.8, s=1.0)
    w0 = np.full(10, 0.1)
    short = ls_pgd_solve(ctx, w0)
    ref = ls_pgd_solve(ctx, w0, SolverOptions(max_iters=100_000, tol_step=0.0, tol_kkt=1e-9))
    assert ref.termination == "kkt_tol"
    assert abs(short.objective_trace[-1] - ref.objective_trace[-1]) <= 1e-8


def test_pgd_iterates_stay_feasible():
    ctx = generic_context(103, rho1=0.5, rho2=0.5, s=2.0)
    report = ls_pgd_solve(ctx, np.full(10, 0.2), SolverOptions(max_iters=50))
    assert validate_simplex(report.w_final, 2.0)
    # every trace entry was computed through the feasibility guard already;
    # spot-check the guard is active
    with pytest.raises(InfeasiblePointError):
        ls_pgd_solve(ctx, np.full(10, 0.3))


def test_pgd_nonsmooth_abort_on_constant_mean():
    # the abort is a RuntimeError, the one class harness and cli count as a
    # failed fit, and it fires before any step, leaving the start untouched
    mom = EmpiricalMoments(np.full(3, 2.0), np.eye(3), 10)
    ctx = build_context(mom, ModelConfig(rho1=0.5, s=1.0))
    w0 = np.full(3, 1.0 / 3.0)
    with pytest.raises(RuntimeError, match="square-root term nonsmooth"):
        ls_pgd_solve(ctx, w0)
    assert np.array_equal(w0, np.full(3, 1.0 / 3.0))


def test_vertex_solve_matches_line_search_on_linear_instance():
    ctx = generic_context(101, s=2.0)
    assert is_concave(ctx.config)
    report = vertex_solve(ctx)
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 2.0
    assert np.array_equal(report.w_final, vertex)
    assert report.termination == "kkt_tol"
    assert report.iters == 0
    assert report.kkt_residual == 0.0
    assert report.objective_trace == [objective_value(ctx, vertex)]
    ref = ls_pgd_solve(ctx, np.full(10, 0.2))
    assert ref.converged
    assert abs(report.objective_trace[-1] - ref.objective_trace[-1]) <= 1e-9
    with pytest.raises(ValueError):
        vertex_solve(generic_context(101, rho2=0.8, s=2.0))


def test_ls_pgd_fixed_point_terminates_immediately():
    ctx = generic_context(101, s=1.0)
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 1.0
    report = ls_pgd_solve(ctx, vertex)
    assert report.converged
    assert report.iters == 1
    assert np.array_equal(report.w_final, vertex)
    assert len(report.objective_trace) == 1


def test_ls_pgd_trace_non_increasing_and_descent(monkeypatch):
    for kwargs in [
        dict(rho1=0.4, rho2=0.6, s=2.0),
        dict(rho1=0.4, rho2=0.6, s=5.0, alpha=0.5),
        dict(rho2=1.0, s=3.0, quad_weight=0.5),
        # nearly linear: spectral steps near 1 / (2 quad_weight) far exceed ETA_MAX
        dict(s=1.0, quad_weight=1e-8),
    ]:
        ctx = generic_context(107, **kwargs)
        w0 = np.full(10, ctx.config.s / 10)
        # the kkt_tol test divides by min(eta, ETA_MAX); other values of
        # ETA_MAX keep both the step and the cap in that test exercised
        for eta_max, opts in (
            (1.0, SolverOptions()),
            (1.0, SolverOptions(tol_step=0.0)),
            (0.1, SolverOptions(tol_step=0.0)),
            (10.0, SolverOptions(tol_step=0.0)),
        ):
            monkeypatch.setattr(mugl.solvers, "ETA_MAX", eta_max)
            report = ls_pgd_solve(ctx, w0, opts)
            trace = np.array(report.objective_trace)
            assert np.all(np.diff(trace) <= 0.0)
            assert np.isfinite(trace).all()
            assert validate_simplex(report.w_final, ctx.config.s)
            if opts.tol_step == 0.0:
                assert report.termination == "kkt_tol"
            if report.termination == "kkt_tol":
                # the stopping test bounds the residual at probe step ETA_MAX,
                # which is the residual the report carries
                residual = stationarity_residual(ctx, report.w_final)
                assert report.kkt_residual == residual <= opts.tol_kkt


def test_step_tol_fires_only_after_a_long_step(monkeypatch):
    # a short step moves w less than the long one, so the step-size stop is
    # tested only after long steps, which are the odd iterations
    fired = []
    for kwargs in [
        dict(rho1=0.4, rho2=0.6, s=2.0),
        dict(rho1=0.4, rho2=0.6, s=5.0, alpha=0.5),
        dict(rho2=1.0, s=3.0, quad_weight=0.5),
    ]:
        for seed in (101, 103, 107):
            ctx = generic_context(seed, **kwargs)
            w0 = np.full(10, ctx.config.s / 10)
            for eta_max, opts in (
                (1.0, SolverOptions()),
                (1.0, SolverOptions(tol_step=1e-4, tol_kkt=0.0)),
                (1.0, SolverOptions(tol_step=1e-2, tol_kkt=0.0)),
                (0.1, SolverOptions(tol_step=1e-3, tol_kkt=0.0)),
            ):
                monkeypatch.setattr(mugl.solvers, "ETA_MAX", eta_max)
                report = ls_pgd_solve(ctx, w0, opts)
                if report.termination == "step_tol":
                    fired.append(report.iters)
    assert len(fired) >= 10
    assert all(iters % 2 == 1 for iters in fired)


@pytest.mark.parametrize("kwargs", [
    dict(rho2=0.5, s=4.0, alpha=0.6),
    dict(rho1=0.4, rho2=0.6, s=5.0, alpha=0.5),
    dict(s=3.0, alpha=0.5, quad_weight=0.5),
])
def test_ls_pgd_builds_one_record_per_evaluated_point(monkeypatch, kwargs):
    # w0 and every trial point, accepted or rejected, get one record each;
    # the start point is not evaluated twice, so backtracks count exactly the
    # rejected trial points; the vertex solver takes none
    ctx = generic_context(109, **kwargs)
    real_point = mugl.objective._point
    records = []

    def counting_point(ctx_, w):
        records.append(1)
        return real_point(ctx_, w)

    monkeypatch.setattr(mugl.objective, "_point", counting_point)
    report = ls_pgd_solve(ctx, np.full(10, ctx.config.s / 10))
    assert report.backtracks > 0
    assert len(records) == len(report.objective_trace) + report.backtracks
    monkeypatch.undo()
    assert vertex_solve(generic_context(101, s=1.0)).backtracks == 0


@pytest.mark.parametrize("kwargs, opts, termination", [
    (dict(rho2=1.0, s=3.0, quad_weight=0.5), SolverOptions(tol_step=0.0), "kkt_tol"),
    (dict(rho1=0.4, rho2=0.6, s=5.0, alpha=0.5), SolverOptions(tol_step=0.0), "kkt_tol"),
    (dict(rho1=0.4, rho2=0.6, s=2.0), SolverOptions(tol_step=1e-2, tol_kkt=0.0), "step_tol"),
    (dict(rho2=0.5, s=4.0, alpha=0.6), SolverOptions(max_iters=7, tol_step=0.0, tol_kkt=0.0),
     "max_iters"),
])
def test_ls_pgd_evaluates_one_gradient_per_point(monkeypatch, kwargs, opts, termination):
    # one gradient per iteration; the certificate reuses the last one on a
    # kkt_tol stop, which tests the point the iteration started from, and
    # takes one more at the accepted point otherwise
    ctx = generic_context(103, **kwargs)
    real_gradient = mugl.objective._gradient
    calls = []

    def counting_gradient(ctx_, w, pt):
        calls.append(w)
        return real_gradient(ctx_, w, pt)

    monkeypatch.setattr(mugl.objective, "_gradient", counting_gradient)
    report = ls_pgd_solve(ctx, np.full(10, ctx.config.s / 10), opts)
    assert report.termination == termination
    assert len(calls) == report.iters + (termination != "kkt_tol")
    assert np.array_equal(calls[-1], report.w_final)


def test_context_without_its_sqrt_floor_is_rejected():
    # the nonsmooth threshold of a @ w has no default: a context built by
    # hand without it must fail rather than get floor 0
    ctx = generic_context(101, rho1=0.5)
    assert ctx.sqrt_floor == mugl.objective.SQRT_FLOOR * float(ctx.sqrt_coeff.max()) * ctx.config.s
    with pytest.raises(TypeError):
        mugl.objective.ObjectiveContext(ctx.config, ctx.m, ctx.quad_coeff, ctx.sqrt_coeff)


def test_ls_pgd_rejects_non_finite_gradient(monkeypatch):
    # the first iteration's gradient is poisoned, so the solve aborts before
    # it evaluates any trial point: the only value taken is the one at w0
    ctx = generic_context(113, rho2=0.5, s=1.0)
    real_point = mugl.objective._point
    evaluated = []

    def counting_point(ctx_, w):
        evaluated.append(w)
        return real_point(ctx_, w)

    monkeypatch.setattr(mugl.objective, "_point", counting_point)
    monkeypatch.setattr(mugl.objective, "_gradient", lambda ctx_, w, pt: np.full(10, math.nan))
    with pytest.raises(RuntimeError, match="non-finite gradient"):
        ls_pgd_solve(ctx, np.full(10, 0.1))
    assert len(evaluated) == 1


def test_ls_pgd_rejects_a_step_that_predicts_an_increase(monkeypatch):
    # v and Gamma share one gradient, so no corrupted gradient can make the
    # predicted decrease positive; a projection that returns the uphill point
    # project(w + eta * grad) instead of project(w - eta * grad) does.  The
    # Armijo test then accepts only steps too short to move w, so the solve
    # stops on step_tol, and the certificate marks the fit as not certified.
    ctx = generic_context(109, rho2=0.5, s=4.0, alpha=0.6)
    w0 = np.full(10, 0.4)
    original = mugl.solvers.project_simplex
    monkeypatch.setattr(
        mugl.solvers, "project_simplex", lambda moved, s: original(2.0 * w0 - moved, s)
    )
    report = ls_pgd_solve(ctx, w0)
    assert not report.certified
    assert report.kkt_residual > SolverOptions().tol_kkt
    assert report.record()["certified"] is False


def test_ls_pgd_has_no_round_off_aborts_on_tight_headline_draws():
    # With tol_kkt=1e-10 these three headline draws reach steps whose Gamma
    # (4e-13 to 1.1e-12) is positive: round-off, plus the mean of the
    # gradient times the drift of sum(w) from s.  Every fit still returns,
    # and no accepted step raises the objective.
    tight = SolverOptions(tol_step=0.0, tol_kkt=1e-10, max_iters=1000)
    seeds = run_seeds(1234, 10)
    for draw in (3, 6, 9):
        graph_seed, signal_seed = seeds[draw]
        graph = gen_graph(GraphSpec("gaussian", 20, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=80, epsilon=0.1, seed=signal_seed))
        _, report = learn(ModelPreset("mugl_o", solver=tight), X)
        assert report.termination in ("kkt_tol", "max_iters")
        assert np.all(np.diff(report.objective_trace) <= 0.0)


def test_mugl_l_on_er_draw_converges_within_iteration_guard():
    # fixed steps needed 481 iterations on this draw; spectral steps about 115
    graph = gen_graph(GraphSpec("er", 100, seed=0))
    X = gen_signals(graph.laplacian, SignalSpec(n=400, epsilon=0.1, seed=100))
    _, report = learn(ModelPreset("mugl_l"), X)
    assert report.converged
    assert report.iters <= 250


def test_ls_pgd_keeps_barrier_domain():
    ctx = generic_context(109, rho2=0.5, s=4.0, alpha=0.6)
    report = ls_pgd_solve(ctx, np.full(10, 0.4))
    assert np.isfinite(report.objective_trace).all()
    assert degrees(report.w_final, ctx.m).min() > 0.0


def test_ls_pgd_rejects_out_of_domain_start():
    ctx = generic_context(109, s=1.0, alpha=0.6)
    vertex = np.zeros(10)
    vertex[0] = 1.0
    with pytest.raises(BarrierDomainError):
        ls_pgd_solve(ctx, vertex)


def test_ls_pgd_seeded_barrier_instance_converges():
    # gaussian graph, m=10: the shape of instance the benchmark loop solves
    graph = gen_graph(GraphSpec("gaussian", 10, seed=0))
    X = gen_signals(graph.laplacian, SignalSpec(n=100, epsilon=0.1, seed=7000))
    moments = empirical_moments(X)
    preset = ModelPreset("mugl_l", solver=SolverOptions(tol_step=1e-14))
    ctx = build_context(moments, resolve_config(preset, moments, 10))
    report = ls_pgd_solve(ctx, np.full(45, 10.0 / 45.0), preset.solver)
    assert report.termination == "kkt_tol"
    assert np.all(np.diff(report.objective_trace) <= 0.0)
    assert report.kkt_residual <= 1e-6


def test_ls_pgd_two_starts_agree_on_convex_instance():
    ctx = generic_context(101, rho2=0.8, s=5.0, alpha=0.4)
    first = ls_pgd_solve(ctx, np.full(10, 0.5))
    w0 = np.full(10, 0.5)
    w0[0] = 2.0
    w0 *= 5.0 / w0.sum()
    second = ls_pgd_solve(ctx, w0)
    assert first.converged and second.converged
    assert abs(first.objective_trace[-1] - second.objective_trace[-1]) <= 1e-6


def test_ls_pgd_starts_agree_on_headline_draws():
    # g is not convex when rho1 > 0, so agreement between starts is checked,
    # not implied.  Two different minima on some draw would call for a
    # difference-of-convex method.
    for graph_seed, signal_seed in run_seeds(1234, 3):
        graph = gen_graph(GraphSpec("gaussian", 20, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=80, epsilon=0.1, seed=signal_seed))
        moments = empirical_moments(X)
        starts = np.random.default_rng(signal_seed).dirichlet(np.ones(190), size=4) * 20.0
        for preset in (ModelPreset("mugl_o"), ModelPreset("mugl_l"),
                       ModelPreset("mugl_o", rho2=1.0), ModelPreset("mugl_l", rho2=1.0)):
            ctx = build_context(moments, resolve_config(preset, moments, 20))
            best = ls_pgd_solve(ctx, np.full(190, 20.0 / 190)).objective_trace[-1]
            for w0 in starts:
                report = ls_pgd_solve(ctx, w0)
                assert report.converged
                assert abs(report.objective_trace[-1] - best) <= 1e-9 * abs(best)


def test_ls_pgd_has_no_round_off_aborts_on_short_sparse_draws():
    # ER p=0.05, m=20, n=5: predicted decreases of 1e-12 to 2e-12 are
    # round-off at these radii (rho2 in the hundreds), and every fit returns
    for seed in range(40):
        graph = gen_graph(GraphSpec("er", 20, seed=seed, p=0.05))
        X = gen_signals(graph.laplacian, SignalSpec(n=5, epsilon=0.1, seed=seed + 100))
        for name in ("mugl_o", "mugl_l", "log_model"):
            _, report = learn(ModelPreset(name), X)
            assert report.termination in ("step_tol", "kkt_tol")


def test_ls_pgd_nonsmooth_abort_on_constant_mean():
    # a constant mean zeroes the square-root term's coefficients, so the
    # first gradient already has no value and the solve aborts
    mom = EmpiricalMoments(np.full(3, 2.0), np.eye(3), 10)
    ctx = build_context(mom, ModelConfig(rho1=0.5, s=1.0))
    with pytest.raises(NonsmoothPointError):
        ls_pgd_solve(ctx, np.full(3, 1.0 / 3.0))


def test_ls_pgd_stalls_on_never_decreasing_objective(monkeypatch):
    # every trial point sits above the value at w0, so the first iteration
    # rejects all of them: w0 plus 1 + MAX_BACKTRACKS evaluations
    ctx = generic_context(113, rho2=0.5, s=1.0)
    real_point = mugl.objective._point
    calls = {"n": 0}

    def stuck_point(ctx_, w):
        calls["n"] += 1
        _, *pieces = real_point(ctx_, w)
        return (0.0 if calls["n"] == 1 else 1.0, *pieces)

    monkeypatch.setattr(mugl.objective, "_point", stuck_point)
    with pytest.raises(LineSearchStallError, match="backtracks at iteration 1$"):
        ls_pgd_solve(ctx, np.full(10, 0.1))
    assert calls["n"] == MAX_BACKTRACKS + 2


def test_stationarity_residual_zero_at_linear_minimizer():
    ctx = generic_context(101, s=1.0)
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 1.0
    assert stationarity_residual(ctx, vertex) == pytest.approx(0.0, abs=1e-12)


def test_stationarity_residual_zero_under_uniform_gradient():
    mom = EmpiricalMoments(np.zeros(4), np.eye(4), 10)
    ctx = build_context(mom, ModelConfig(s=2.0))
    w = random_interior(np.random.default_rng(19), 6, 2.0)
    assert stationarity_residual(ctx, w) == pytest.approx(0.0, abs=1e-12)


def test_stationarity_residual_decreases_along_pgd():
    ctx = generic_context(101, rho2=0.8, s=1.0)
    w0 = np.full(10, 0.1)
    start = stationarity_residual(ctx, w0)
    report = ls_pgd_solve(ctx, w0)
    assert start > 0.0
    assert report.kkt_residual < start


def test_objective_trace_records_start_value():
    ctx = generic_context(101, rho2=0.8, s=1.0)
    w0 = np.full(10, 0.1)
    report = ls_pgd_solve(ctx, w0, SolverOptions(max_iters=3, tol_step=0.0, tol_kkt=0.0))
    assert report.termination == "max_iters"
    assert report.iters == 3
    assert len(report.objective_trace) == 4
    assert report.objective_trace[0] == pytest.approx(objective_value(ctx, w0))


def test_gap_is_nonnegative_and_zero_at_the_vertex():
    for kwargs in (
        {"rho2": 0.5, "s": 4.0, "alpha": 0.6},
        {"rho1": 0.3, "rho2": 0.5, "s": 2.0},
        {"s": 3.0, "alpha": 0.5, "quad_weight": 0.5},
    ):
        report = ls_pgd_solve(generic_context(109, **kwargs), np.full(10, kwargs["s"] / 10))
        assert report.gap >= -1e-12
    assert vertex_solve(generic_context(101, s=2.0)).gap == 0.0


def test_gap_bounds_the_distance_to_a_tighter_solve():
    graph = gen_graph(GraphSpec("gaussian", 12, seed=3))
    X = gen_signals(graph.laplacian, SignalSpec(n=48, epsilon=0.1, seed=30))
    moments = empirical_moments(X)
    loose = SolverOptions(tol_step=1e-4, tol_kkt=1e-3)
    tight = SolverOptions(tol_step=1e-14, tol_kkt=1e-9)
    for name in ("mugl_o", "mugl_l", "log_model"):
        ctx = build_context(moments, resolve_config(ModelPreset(name), moments, 12))
        w0 = np.full(ctx.n_pairs, 12.0 / ctx.n_pairs)
        best = ls_pgd_solve(ctx, w0, tight).objective_trace[-1]
        rough = ls_pgd_solve(ctx, w0, loose)
        assert rough.objective_trace[-1] - best > 0.0
        for report in (rough, ls_pgd_solve(ctx, w0)):
            assert report.gap >= report.objective_trace[-1] - best


def solve_digest(report):
    """sha256 over the final weights, the objective trace, iters and backtracks."""
    h = hashlib.sha256()
    h.update(report.w_final.tobytes())
    h.update(np.asarray(report.objective_trace, dtype=float).tobytes())
    h.update(f"{report.iters},{report.backtracks}".encode())
    return h.hexdigest()


# Recorded with numpy 2.4 on x86-64 from the solver that alternates long
# (BB1) and short (BB2) spectral steps and tests the step stop after long
# steps only; the projection is the sort-based one that
# oracles.project_simplex_reference checks bit for bit.  mugl_o and mugl_l
# calibrate their radii with sigma = eigvalsh(cov)[-1]; log_model does not
# calibrate.  Any digest change means the arithmetic of a solve changed: the
# step rule, the projection, the stopping tests, the objective or, for the
# robust presets, the calibrated radii.
PINNED_DIGESTS = {
    (0, "mugl_o"): "ec01360196a2453ce848bb710fbd35aadef866c0fa8d58b64b7d09c7d672da36",
    (0, "mugl_l"): "332f53e2de749613fe027f7f1323237e5806ccb5d0feae7a25a7cca2246c2f15",
    (0, "log_model"): "d6a7c05c289e2a6412126ded7b75f94ba40098a65aa28152c13d76ffeb571a2d",
    (1, "mugl_o"): "3ba5684dc9415c05cde588342b1ed3737c815a81ff5b833c8fc39e6ba0af7623",
    (1, "mugl_l"): "ecc3704c511836a979fd0157118c8705ae74737c62e4a2050351f504a83da164",
    (1, "log_model"): "991e53c7ae44e72da45d867026f33c6a9751cdf5fe063adcbb8a8e9c02597481",
}


def test_solves_match_pinned_digests():
    got = {}
    for draw, (graph_seed, signal_seed) in enumerate(run_seeds(2024, 2)):
        graph = gen_graph(GraphSpec("gaussian", 30, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=120, epsilon=0.1, seed=signal_seed))
        for name in ("mugl_o", "mugl_l", "log_model"):
            got[draw, name] = solve_digest(learn(ModelPreset(name), X)[1])
    assert got == PINNED_DIGESTS


# float.hex of (kkt_residual, gap) on the PINNED_DIGESTS draws, vsgl's
# vertex_solve included.  solve_digest covers neither: both come from the
# gradient at the returned point, through the projection, a 2-norm and a
# minimum, so any change to those reductions shows here first.
PINNED_CERTIFICATES = {
    (0, "mugl_o"): ("0x1.41cca69bb59fep-26", "0x1.b581080000000p-23"),
    (0, "mugl_l"): ("0x1.264b90fe46f37p-20", "0x1.2317ae6000000p-17"),
    (0, "log_model"): ("0x1.3b321db0c3423p-21", "0x1.148c7b7740000p-17"),
    (0, "vsgl"): ("0x0.0p+0", "0x0.0p+0"),
    (1, "mugl_o"): ("0x1.6f24212eac372p-19", "0x1.280892c000000p-18"),
    (1, "mugl_l"): ("0x1.2af09276c0238p-22", "0x1.4395d00000000p-21"),
    (1, "log_model"): ("0x1.6a0598ee3ffc8p-21", "0x1.1204a1a580000p-18"),
    (1, "vsgl"): ("0x0.0p+0", "0x0.0p+0"),
}


def test_solve_certificates_match_pinned_bits():
    got = {}
    for draw, (graph_seed, signal_seed) in enumerate(run_seeds(2024, 2)):
        graph = gen_graph(GraphSpec("gaussian", 30, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=120, epsilon=0.1, seed=signal_seed))
        for name in ("mugl_o", "mugl_l", "log_model", "vsgl"):
            report = learn(ModelPreset(name), X)[1]
            got[draw, name] = (report.kkt_residual.hex(), report.gap.hex())
    assert got == PINNED_CERTIFICATES


def test_alternating_steps_match_a_tight_solve():
    # A default fit must land where a solve without the step stop and with
    # tol_kkt=1e-10 lands: the same objective up to round-off and the same
    # learned edges.  That solve reaches the round-off floor of the Armijo
    # test on most draws and then makes no progress, so it is capped.
    tight = SolverOptions(tol_step=0.0, tol_kkt=1e-10, max_iters=300)
    for graph_seed, signal_seed in run_seeds(2024, 6):
        graph = gen_graph(GraphSpec("gaussian", 30, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=120, epsilon=0.1, seed=signal_seed))
        moments = empirical_moments(X)
        for name in ("mugl_o", "mugl_l", "log_model"):
            config, report = learn(ModelPreset(name), X)
            ctx = build_context(moments, config)
            ref = ls_pgd_solve(ctx, np.full(ctx.n_pairs, config.s / ctx.n_pairs), tight)
            assert report.converged
            best = ref.objective_trace[-1]
            assert abs(report.objective_trace[-1] - best) <= 1e-9 * abs(best)
            assert np.array_equal(binarize(report.w_final), binarize(ref.w_final))
