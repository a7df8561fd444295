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
    NEWTON_BACKTRACKS,
    SolverOptions,
    ls_pgd_solve,
    project_simplex,
    start_point,
)
from oracles import (
    face_direction_reference,
    gaussian_draws,
    project_simplex_bruteforce,
    project_simplex_reference,
    random_interior,
    solver_work,
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
        {"tol_kkt": -1.0},
        {"tol_kkt": math.nan},
        {"tol_kkt": math.inf},
    ]:
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)
    # the steps and the Armijo constants are module constants, not options,
    # and no step-size tolerance stops a solve
    assert [f.name for f in fields(SolverOptions)] == ["max_iters", "tol_kkt"]


def test_pgd_linear_objective_finds_argmin_vertex():
    ctx = generic_context(101, s=1.0)
    report = ls_pgd_solve(ctx, np.full(10, 0.1))
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 1.0
    assert np.array_equal(report.w_final, vertex)
    assert report.termination == "kkt_tol" and report.certified


def test_linear_instance_takes_fallback_step(monkeypatch):
    # the model Hessian is zero, so CG finds no positive curvature and every
    # search runs along the projected-gradient step z - w with the fallback's
    # budget; none runs along a Newton direction
    ctx = generic_context(101, s=1.0)
    real_search = mugl.solvers._search
    searches = []

    def spy(ctx_, w, pt, f_cur, g, d, budget):
        assert not np.any(mugl.objective._hessian_vector(ctx_, w, pt, g))
        z = project_simplex(w - mugl.solvers.ETA_MAX * g, ctx_.config.s)
        assert budget == MAX_BACKTRACKS
        assert np.array_equal(d, z - w)
        accepted, rejected = real_search(ctx_, w, pt, f_cur, g, d, budget)
        searches.append(accepted is not None)
        return accepted, rejected

    monkeypatch.setattr(mugl.solvers, "_search", spy)
    monkeypatch.setattr(mugl.solvers, "ETA_MAX", 0.25)
    report = ls_pgd_solve(ctx, np.full(10, 0.1))
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 1.0
    assert report.termination == "kkt_tol" and report.certified
    assert np.array_equal(report.w_final, vertex)
    assert searches == [True] * (len(report.objective_trace) - 1)


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
    ref = ls_pgd_solve(ctx, w0, SolverOptions(max_iters=100_000, tol_kkt=1e-9))
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


def test_vertex_start_matches_line_search_on_linear_instance():
    ctx = generic_context(101, s=2.0)
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 2.0
    assert np.array_equal(start_point(ctx), vertex)
    report = ls_pgd_solve(ctx, start_point(ctx))
    assert np.array_equal(report.w_final, vertex)
    assert report.termination == "kkt_tol"
    assert report.iters == 1
    assert report.kkt_residual == 0.0
    assert report.objective_trace == [objective_value(ctx, vertex)]
    ref = ls_pgd_solve(ctx, np.full(10, 0.2))
    assert ref.termination == "kkt_tol" and ref.certified
    assert abs(report.objective_trace[-1] - ref.objective_trace[-1]) <= 1e-9
    # a convex term moves the start to the centroid
    for kwargs in (dict(rho2=0.8), dict(alpha=0.5), dict(quad_weight=0.5)):
        assert np.array_equal(start_point(generic_context(101, s=2.0, **kwargs)), np.full(10, 0.2))


def test_vertex_start_is_checked_and_evaluated_once(monkeypatch):
    # one feasibility check and one record, which serves value and gradient
    names = {"check": "_check_feasible", "point": "_point", "gradient": "_gradient"}
    calls = dict.fromkeys(names, 0)
    for key, attr in names.items():
        def counting(*args, _real=getattr(mugl.objective, attr), _key=key):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(mugl.objective, attr, counting)
    for kwargs in (dict(s=2.0), dict(rho1=0.5, s=2.0)):
        calls.update(dict.fromkeys(names, 0))
        ctx = generic_context(101, **kwargs)
        report = ls_pgd_solve(ctx, start_point(ctx))
        assert calls == {"check": 1, "point": 1, "gradient": 1}
        assert report.certified and report.kkt_residual == 0.0


@pytest.mark.parametrize("preset", [ModelPreset("vsgl"), ModelPreset("mugl_o", rho2=0.0)])
def test_vertex_start_is_the_best_of_every_vertex(preset):
    # brute force over all p vertices s * e_k of the headline draws: the
    # closed-form start has the least objective, and the solve certifies it
    # on its first gradient without moving
    for graph_seed, signal_seed in run_seeds(0, 20):
        graph = gen_graph(GraphSpec("gaussian", 20, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=80, epsilon=0.1, seed=signal_seed))
        moments = empirical_moments(X)
        ctx = build_context(moments, resolve_config(preset, moments, 20))
        s = ctx.config.s
        values = [objective_value(ctx, s * np.eye(1, ctx.n_pairs, k)[0]) for k in range(ctx.n_pairs)]
        w0 = start_point(ctx)
        assert np.count_nonzero(w0) == 1 and w0.max() == s
        assert objective_value(ctx, w0) == min(values)
        report = ls_pgd_solve(ctx, w0)
        assert np.array_equal(report.w_final, w0)
        assert (report.termination, report.certified, report.iters) == ("kkt_tol", True, 1)
        assert (report.kkt_residual, report.gap, report.backtracks) == (0.0, 0.0, 0)


def test_ls_pgd_fixed_point_terminates_immediately():
    ctx = generic_context(101, s=1.0)
    vertex = np.zeros(10)
    vertex[np.argmin(ctx.quad_coeff)] = 1.0
    report = ls_pgd_solve(ctx, vertex)
    assert report.termination == "kkt_tol" and report.certified
    assert report.iters == 1
    assert np.array_equal(report.w_final, vertex)
    assert len(report.objective_trace) == 1


def test_ls_pgd_trace_non_increasing_and_descent(monkeypatch):
    # every accepted step, along a Newton direction or the fallback, is a
    # descent direction of the gradient at the point it leaves
    real_search = mugl.solvers._search
    slopes = []

    def spy(ctx_, w, pt, f_cur, g, d, budget):
        accepted, rejected = real_search(ctx_, w, pt, f_cur, g, d, budget)
        if accepted is not None:
            slopes.append(float(g @ (accepted[0] - w)))
        return accepted, rejected

    monkeypatch.setattr(mugl.solvers, "_search", spy)
    for kwargs in [
        dict(rho1=0.4, rho2=0.6, s=2.0),
        dict(rho1=0.4, rho2=0.6, s=5.0, alpha=0.5),
        dict(rho2=1.0, s=3.0, quad_weight=0.5),
        # nearly linear: the model's curvature 2 quad_weight is tiny, so full
        # Newton steps overshoot by far
        dict(s=1.0, quad_weight=1e-8),
    ]:
        ctx = generic_context(107, **kwargs)
        w0 = np.full(10, ctx.config.s / 10)
        # ETA_MAX sets the probe residual, the active set and the fallback
        # step; other values of it exercise each of them
        for eta_max in (1.0, 0.1, 10.0):
            monkeypatch.setattr(mugl.solvers, "ETA_MAX", eta_max)
            slopes.clear()
            report = ls_pgd_solve(ctx, w0)
            trace = np.array(report.objective_trace)
            assert np.all(np.diff(trace) <= 0.0)
            assert len(slopes) == len(trace) - 1
            assert all(slope < 0.0 for slope in slopes)
            assert np.isfinite(trace).all()
            assert validate_simplex(report.w_final, ctx.config.s)
            assert report.termination == "kkt_tol"
            # the stopping test bounds the residual at probe step ETA_MAX,
            # which is the residual the report carries
            residual = stationarity_residual(ctx, report.w_final)
            assert report.kkt_residual == residual <= SolverOptions().tol_kkt


def test_step_tol_fires_only_before_certification(monkeypatch):
    # step_tol is the stall of the fallback search: it fires only at a point
    # that is not certified, and only right after a search along z - w (the
    # one with MAX_BACKTRACKS) that accepted nothing.  tol_kkt=0 is met only
    # at a point whose residual is exactly 0.0; every other fit at it runs
    # until the fallback stalls.
    real_search = mugl.solvers._search
    searches = []

    def spy(ctx_, w, pt, f_cur, g, d, budget):
        accepted, rejected = real_search(ctx_, w, pt, f_cur, g, d, budget)
        searches.append((budget, accepted is None))
        return accepted, rejected

    monkeypatch.setattr(mugl.solvers, "_search", spy)
    fired = []
    for kwargs in [
        dict(rho1=0.4, rho2=0.6, s=2.0),
        dict(rho1=0.4, rho2=0.6, s=5.0, alpha=0.5),
        dict(rho2=1.0, s=3.0, quad_weight=0.5),
    ]:
        for seed in (101, 103, 104, 107):
            ctx = generic_context(seed, **kwargs)
            w0 = np.full(10, ctx.config.s / 10)
            for eta_max, opts in (
                (1.0, SolverOptions()),
                (1.0, SolverOptions(tol_kkt=0.0)),
                (0.1, SolverOptions(tol_kkt=1e-9)),
                (0.1, SolverOptions(tol_kkt=0.0)),
            ):
                monkeypatch.setattr(mugl.solvers, "ETA_MAX", eta_max)
                searches.clear()
                report = ls_pgd_solve(ctx, w0, opts)
                if report.termination == "step_tol":
                    fired.append(report.iters)
                    assert not report.certified
                    assert report.kkt_residual > opts.tol_kkt
                    assert searches[-1] == (MAX_BACKTRACKS, True)
                    assert len(report.objective_trace) == report.iters
                else:
                    assert report.termination == "kkt_tol"
                    if opts.tol_kkt == 0.0:
                        assert report.certified and report.kkt_residual == 0.0
    # 22 of the 24 fits at tol_kkt=0 stall; two certify at residual 0.0
    assert len(fired) >= 18


@pytest.mark.parametrize("kwargs", [
    dict(rho2=0.5, s=4.0, alpha=0.6),
    dict(rho1=0.4, rho2=0.6, s=5.0, alpha=0.5),
    dict(s=3.0, alpha=0.5, quad_weight=0.5),
])
def test_ls_pgd_builds_one_record_per_evaluated_point(monkeypatch, kwargs):
    # w0 and every trial point, accepted or rejected, get one record each;
    # the start point is not evaluated twice, so backtracks count exactly the
    # rejected trial points; a solve from a vertex start takes none
    ctx = generic_context(110, **kwargs)
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
    vertex_ctx = generic_context(101, s=1.0)
    assert ls_pgd_solve(vertex_ctx, start_point(vertex_ctx)).backtracks == 0


# kwargs are generic_context's, the draw's seed included
@pytest.mark.parametrize("kwargs, opts, termination", [
    (dict(seed=103, rho2=1.0, s=3.0, quad_weight=0.5), SolverOptions(), "kkt_tol"),
    (dict(seed=103, rho1=0.4, rho2=0.6, s=5.0, alpha=0.5), SolverOptions(), "kkt_tol"),
    (dict(seed=101, rho1=0.4, rho2=0.6, s=2.0), SolverOptions(tol_kkt=0.0), "step_tol"),
    (dict(seed=103, rho2=0.5, s=4.0, alpha=0.6), SolverOptions(max_iters=7, tol_kkt=0.0), "max_iters"),
])
def test_ls_pgd_evaluates_one_gradient_per_point(monkeypatch, kwargs, opts, termination):
    # one gradient per iteration; both stopping tests come first in an
    # iteration, so a kkt_tol or step_tol stop certifies with the gradient it
    # holds, and only a max_iters stop takes one more at the last point
    ctx = generic_context(**kwargs)
    real_gradient = mugl.objective._gradient
    calls = []

    def counting_gradient(ctx_, w, pt):
        calls.append(w)
        return real_gradient(ctx_, w, pt)

    monkeypatch.setattr(mugl.objective, "_gradient", counting_gradient)
    report = ls_pgd_solve(ctx, np.full(10, ctx.config.s / 10), opts)
    assert report.termination == termination
    assert len(calls) == report.iters + (termination == "max_iters")
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
    # a step and its predicted change g @ (trial - w) share one gradient, so
    # no corrupted gradient can make an accepted step predict an increase; a
    # projection that returns the uphill point
    # project(w + eta * grad) instead of project(w - eta * grad) does.  It
    # also corrupts the probe residual and the active set, so the solve
    # stops moving (step_tol) where the residual it measures stays large,
    # and the certificate marks the fit as not certified.
    ctx = generic_context(109, rho2=0.5, s=4.0, alpha=0.6)
    w0 = np.full(10, 0.4)
    original = mugl.solvers.project_simplex
    monkeypatch.setattr(
        mugl.solvers, "project_simplex", lambda moved, s: original(2.0 * w0 - moved, s)
    )
    report = ls_pgd_solve(ctx, w0)
    assert report.termination == "step_tol"
    assert not report.certified
    assert report.kkt_residual > SolverOptions().tol_kkt
    assert report.record()["certified"] is False


def test_ls_pgd_has_no_round_off_aborts_on_tight_headline_draws():
    # With tol_kkt=1e-10 the last steps on these three headline draws lower
    # the objective by less than its round-off (about 1e-13 at g near 770);
    # the Armijo test reads those changes in difference form, so every fit
    # is certified, and no accepted step raises the trace.
    tight = SolverOptions(tol_kkt=1e-10, max_iters=1000)
    seeds = run_seeds(1234, 10)
    for draw in (3, 6, 9):
        graph_seed, signal_seed = seeds[draw]
        graph = gen_graph(GraphSpec("gaussian", 20, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=80, epsilon=0.1, seed=signal_seed))
        for name in ("mugl_o", "mugl_l", "log_model"):
            _, report = learn(ModelPreset(name, solver=tight), X)
            assert report.termination == "kkt_tol"
            assert report.iters <= 50
            assert np.all(np.diff(report.objective_trace) <= 0.0)


def test_unreachable_tolerance_ends_on_a_stalled_fallback():
    # No residual meets tol_kkt=0, and no step-size test stops the solve, so
    # each fit runs until its fallback search accepts no trial: step_tol,
    # uncertified, well inside the iteration cap.  On these two headline
    # draws that takes 16 to 1939 iterations.
    opts = SolverOptions(tol_kkt=0.0)
    for graph_seed, signal_seed in run_seeds(0, 2):
        graph = gen_graph(GraphSpec("gaussian", 20, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=80, epsilon=0.1, seed=signal_seed))
        for name in ("mugl_o", "mugl_l", "log_model"):
            _, report = learn(ModelPreset(name, solver=opts), X)
            assert report.termination == "step_tol"
            assert report.iters < opts.max_iters
            assert not report.certified and report.kkt_residual > 0.0
            assert np.all(np.diff(report.objective_trace) <= 0.0)


# sha256 over the packed 1%-of-max edge masks of the fits below, in draw and
# preset order, as the spectral projected-gradient solver that preceded
# Newton-CG learned them
HEADLINE_MASKS_DIGEST = "5e859576989913a7015be790c2fab8b4aa4fc8a215620ed04e945606ed0f2de7"


def test_headline_fits_are_certified_with_unchanged_masks():
    # headline shape: Gaussian m=20, n=80, master seed 0, the first 10 draws
    digest = hashlib.sha256()
    for graph_seed, signal_seed in run_seeds(0, 10):
        graph = gen_graph(GraphSpec("gaussian", 20, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=80, epsilon=0.1, seed=signal_seed))
        for name in ("mugl_o", "mugl_l", "log_model"):
            _, report = learn(ModelPreset(name), X)
            assert report.termination == "kkt_tol" and report.certified
            assert report.iters <= 50
            digest.update(np.packbits(binarize(report.w_final)).tobytes())
    assert digest.hexdigest() == HEADLINE_MASKS_DIGEST


def test_mugl_l_on_er_draw_converges_within_iteration_guard():
    # fixed steps needed 481 iterations on this draw, spectral projected
    # gradient about 115; Newton-CG takes 9
    graph = gen_graph(GraphSpec("er", 100, seed=0))
    X = gen_signals(graph.laplacian, SignalSpec(n=400, epsilon=0.1, seed=100))
    _, report = learn(ModelPreset("mugl_l"), X)
    assert report.certified
    assert report.iters <= 30


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
    preset = ModelPreset("mugl_l")
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
    assert first.certified and second.certified
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
                assert report.certified
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
    # every trial point sits above the value at w0, in its computed value
    # and in difference form, so the first iteration rejects all of them:
    # 1 + NEWTON_BACKTRACKS Newton trials, then 1 + MAX_BACKTRACKS
    # projected-gradient trials, of which those that round back to w0 are
    # rejected without an evaluation.  The solve stops moving at w0 before
    # it is certified, which is a step_tol stop.
    ctx = generic_context(113, rho2=0.5, s=1.0)
    real_point = mugl.objective._point
    calls = {"n": 0}

    def stuck_point(ctx_, w):
        calls["n"] += 1
        _, *pieces = real_point(ctx_, w)
        return (0.0 if calls["n"] == 1 else 1.0, *pieces)

    monkeypatch.setattr(mugl.objective, "_point", stuck_point)
    monkeypatch.setattr(mugl.objective, "_change", lambda ctx_, w, pt, t, tpt: 1.0)
    w0 = np.full(10, 0.1)
    report = ls_pgd_solve(ctx, w0)
    assert report.termination == "step_tol" and report.iters == 1
    assert np.array_equal(report.w_final, w0)
    assert not report.certified and report.kkt_residual > SolverOptions().tol_kkt
    assert report.objective_trace == [0.0]
    assert report.backtracks == NEWTON_BACKTRACKS + MAX_BACKTRACKS + 2
    assert calls["n"] <= NEWTON_BACKTRACKS + MAX_BACKTRACKS + 3


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
    report = ls_pgd_solve(ctx, w0, SolverOptions(max_iters=3, tol_kkt=0.0))
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
    vertex_ctx = generic_context(101, s=2.0)
    assert ls_pgd_solve(vertex_ctx, start_point(vertex_ctx)).gap == 0.0


def test_gap_bounds_the_distance_to_a_tighter_solve():
    graph = gen_graph(GraphSpec("gaussian", 12, seed=3))
    X = gen_signals(graph.laplacian, SignalSpec(n=48, epsilon=0.1, seed=30))
    moments = empirical_moments(X)
    loose = SolverOptions(tol_kkt=1e-3)
    tight = SolverOptions(tol_kkt=1e-9)
    for name in ("mugl_o", "mugl_l", "log_model"):
        ctx = build_context(moments, resolve_config(ModelPreset(name), moments, 12))
        w0 = np.full(ctx.n_pairs, 12.0 / ctx.n_pairs)
        best = ls_pgd_solve(ctx, w0, tight).objective_trace[-1]
        rough = ls_pgd_solve(ctx, w0, loose)
        assert rough.objective_trace[-1] - best > 0.0
        for report in (rough, ls_pgd_solve(ctx, w0)):
            assert report.gap >= report.objective_trace[-1] - best


FACE_CONFIGS = (
    {"rho2": 0.5, "s": 4.0, "alpha": 0.6},
    {"rho1": 0.3, "rho2": 0.5, "s": 2.0},
    {"s": 3.0, "alpha": 0.5, "quad_weight": 0.5},
)


def face_at(ctx, rng, active_weights):
    """(w, record, gradient, active mask) of a face whose first pairs are
    active and hold active_weights; w is feasible for _check_feasible."""
    k = len(active_weights)
    w = random_interior(rng, ctx.n_pairs, ctx.config.s)
    w[:k] = active_weights
    w[k:] *= (ctx.config.s - math.fsum(active_weights)) / math.fsum(w[k:])
    w = mugl.objective._check_feasible(ctx, w)
    pt = mugl.objective._point(ctx, w)
    active = np.zeros(ctx.n_pairs, dtype=bool)
    active[:k] = True
    return w, pt, mugl.objective._gradient(ctx, w, pt), active


def spy_hessian_vector(monkeypatch):
    """The vectors of every Hessian-vector product made, in call order."""
    real = mugl.objective._hessian_vector
    products = []

    def spy(ctx, w, pt, v):
        products.append(v.copy())
        return real(ctx, w, pt, v)

    monkeypatch.setattr(mugl.objective, "_hessian_vector", spy)
    return products


def same_bits(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.tobytes() == b.tobytes()
    )


@pytest.mark.parametrize("kwargs", FACE_CONFIGS)
def test_face_with_zero_active_weights_makes_no_product_for_d0(monkeypatch, kwargs):
    # d0 is the zero vector when every active weight is exactly 0.0, and
    # H 0 = +0.0 leaves r's bits as they are, so its product is skipped
    ctx = generic_context(109, **kwargs)
    w, pt, g, active = face_at(ctx, np.random.default_rng(7), [0.0, 0.0, 0.0])
    products = spy_hessian_vector(monkeypatch)
    expected = face_direction_reference(ctx, w, pt, g, active, 1e-9)
    made_by_reference = len(products)
    assert not np.any(products[0])
    products.clear()
    d = mugl.solvers._face_direction(ctx, w, pt, g, active, 1e-9)
    assert d is not None and same_bits(d, expected)
    assert len(products) == made_by_reference - 1
    assert all(np.any(v) for v in products)


@pytest.mark.parametrize("kwargs", FACE_CONFIGS)
@pytest.mark.parametrize("active_weights", [[0.0, 1e-12, 0.0], [1e-10, -1e-10, 0.0]])
def test_face_with_a_nonzero_active_weight_makes_the_product(monkeypatch, kwargs, active_weights):
    # one active weight at 1e-12, or an admitted -1e-10 start entry whose
    # mass cancels a +1e-10: d0 is nonzero though the active mass may be 0
    ctx = generic_context(109, **kwargs)
    w, pt, g, active = face_at(ctx, np.random.default_rng(7), active_weights)
    products = spy_hessian_vector(monkeypatch)
    expected = face_direction_reference(ctx, w, pt, g, active, 1e-9)
    made_by_reference = len(products)
    products.clear()
    d = mugl.solvers._face_direction(ctx, w, pt, g, active, 1e-9)
    assert same_bits(d, expected)
    assert len(products) == made_by_reference
    assert np.array_equal(products[0][active], -w[active])


def test_face_direction_matches_its_reference_bitwise():
    # random faces in the barrier domain: active weights at +-0.0, tiny,
    # negative or interior, and active masks of every size
    rng = np.random.default_rng(2028)
    compared = 0
    for seed in range(40):
        for kwargs in FACE_CONFIGS:
            ctx = generic_context(seed, **kwargs)
            values = rng.choice([0.0, -0.0, 1e-12, -1e-10, 0.05], size=rng.integers(1, 4))
            w, pt, g, active = face_at(ctx, rng, list(values))
            if not math.isfinite(pt[0]):
                continue
            active |= rng.random(ctx.n_pairs) < 0.3
            if active.all():
                continue
            got = mugl.solvers._face_direction(ctx, w, pt, g, active, 1e-9)
            assert same_bits(got, face_direction_reference(ctx, w, pt, g, active, 1e-9))
            compared += 1
    assert compared >= 100


def test_full_face_solve_meets_the_tight_forcing_term():
    # headline draw 2 of master 0, log_model, at the centroid: no pair is
    # active, so CG must leave a reduced model residual of at most
    # max(min(0.1, ||r0||) ||r0||, cg_tol).  Capped at 0.5, CG stops after
    # one step at 0.164 ||r0||, and that step drives one node's degree from
    # 2 to 0.03.
    X = list(gaussian_draws(0, 3))[2]
    moments = empirical_moments(X)
    preset = ModelPreset("log_model")
    ctx = build_context(moments, resolve_config(preset, moments, 20))
    w = start_point(ctx)
    pt = mugl.objective._point(ctx, w)
    g = mugl.objective._gradient(ctx, w, pt)
    cg_tol = mugl.solvers.CG_KKT_FRACTION * preset.solver.tol_kkt
    d = mugl.solvers._face_direction(ctx, w, pt, g, np.zeros(w.size, dtype=bool), cg_tol)

    def reduced_norm(x):
        return float(np.linalg.norm(x - x.mean()))

    r0 = reduced_norm(-g)
    residual = reduced_norm(-g - mugl.objective._hessian_vector(ctx, w, pt, d))
    assert residual <= max(min(0.1, r0) * r0, cg_tol)


def test_log_model_headline_fits_stay_within_their_work():
    # the 20 log_model fits of headline master 0 take 149 iterations in
    # total; with CG forcing capped at 0.5 on the full face as well they
    # took 226
    work = solver_work({"log_model": ModelPreset("log_model")}, gaussian_draws(0, 20))
    assert work["log_model"]["iters"] <= 160


def test_scale_fits_stay_within_their_work():
    # the scale shape (m=300, n=1200), one draw each of masters 0, 2800,
    # 2810 and 2820: mugl_l takes 48 iterations and 327 Hessian-vector
    # products in total, log_model 19 and 35.  The bounds leave room for a
    # different BLAS thread count moving the last bits (13-14 mugl_l
    # iterations and up to 106 products per draw).  Without the blocked-pair
    # re-solve mugl_l took 992 products, and without the ACTIVE_EPS cap 1,081.
    draws = [X for master in (0, 2800, 2810, 2820)
             for X in gaussian_draws(master, 1, m=300, n=1200)]
    presets = {name: ModelPreset(name) for name in ("mugl_l", "log_model")}
    work = solver_work(presets, draws)
    assert work["mugl_l"]["iters"] <= 60
    assert work["mugl_l"]["hessian_vector_products"] <= 450
    assert work["log_model"]["iters"] <= 28
    assert work["log_model"]["hessian_vector_products"] <= 60


def solve_digest(report):
    """sha256 over the final weights, the objective trace, iters and backtracks."""
    h = hashlib.sha256()
    h.update(report.w_final.tobytes())
    h.update(np.asarray(report.objective_trace, dtype=float).tobytes())
    h.update(f"{report.iters},{report.backtracks}".encode())
    return h.hexdigest()


# Recorded with numpy 2.4 on x86-64 from the projected Newton-CG solver
# (epsilon-active set, one blocking pass, CG forcing min(0.1, ||r0||) on the
# full simplex face and min(0.5, ||r0||) on a face with active pairs, with
# a floor at CG_KKT_FRACTION * tol_kkt, a difference-form Armijo test); the
# projection is the sort-based one that oracles.project_simplex_reference
# checks bit for bit.
# mugl_o and mugl_l take their formula radii with sigma = eigvalsh(cov)[-1];
# log_model and vsgl have none.  Any digest change means the arithmetic of
# a solve changed: the start, the direction, the line search, the
# projection, the stopping tests, the objective or, for the robust presets,
# the formula radii.  At the formula radius the robust fits never send a pair to zero.
# At rho2 = 1 their faces reach 60-72% active, and 31 of their 66 faces
# hold only zero active weights, so the "rho2=1" rows pin the face solve's
# active-set work, the skipped product H d0 included.  vsgl and mugl_o at
# rho2 = 0 have no convex term: their rows pin the closed-form vertex start
# and its certification on the first gradient (iters 1).
PINNED_DIGESTS = {
    (0, "mugl_o"): "f733c2dbb07d8a5d0886aba4938cde3fa6075600500ee63ac792635973eefb52",
    (0, "mugl_l"): "680b33d2a69a18b72531f37cdb22f03171117dfc5bdf837d61fd422ead2d9c2f",
    (0, "log_model"): "651c9c0a3007cf76618cfd1c2376c7c24917a49bbde4738ac82f0d26612249f3",
    (0, "mugl_o rho2=1"): "26a3a565d37557d7ed9272a53d6004f9fb2695dd54fa1625b2ecfd2f7e12a4bd",
    (0, "mugl_l rho2=1"): "b5d7b95242bc0a7b9d3f2cd20e29327073aa6a72aa3d18e08500846727c4593b",
    (0, "vsgl"): "b2b100d3c6b1d3f7bc391217dea9bcd4bd610348a6cab1751edd920266a02d7e",
    (0, "mugl_o rho2=0"): "7df01afcee70590daa8b44424ccd3e51fe07613889ead015e0f33184e5c7de16",
    (1, "mugl_o"): "31ed9d7f015d2cf82db8a6686cfbaa44e3967a2b2a3ac431d85535613f32ca83",
    (1, "mugl_l"): "de2538b52584d2c108e22adc4ea065a7131dea1d81a653dd8ef141ec57aced2e",
    (1, "log_model"): "9135fd8764355ff0c33960d54dd7e8bf2c26d4c14f5f6324809883348a9dcc37",
    (1, "mugl_o rho2=1"): "e6bef9b4361f4ddcdd543d959df007edd555fdb46f9ce0cd6dfc0a1926080083",
    (1, "mugl_l rho2=1"): "4c17baa91486dfaba120f801ae3e047f9aad0f69b470fd655d8410b6835ff1ee",
    (1, "vsgl"): "fccfdd493ab195bfe009237dc87e645909f8998601846e84fe124b7839dbbd53",
    (1, "mugl_o rho2=0"): "c46eb28f848dcccab512d567137ce44a6033b24e25cfba65c30277573057ca51",
}

PINNED_PRESETS = {
    "mugl_o": ModelPreset("mugl_o"),
    "mugl_l": ModelPreset("mugl_l"),
    "log_model": ModelPreset("log_model"),
    "vsgl": ModelPreset("vsgl"),
    "mugl_o rho2=1": ModelPreset("mugl_o", rho2=1.0),
    "mugl_l rho2=1": ModelPreset("mugl_l", rho2=1.0),
    "mugl_o rho2=0": ModelPreset("mugl_o", rho2=0.0),
}


def pinned_reports(names):
    """{(draw, name): solve report} on the two pinned m=30 draws."""
    reports = {}
    for draw, (graph_seed, signal_seed) in enumerate(run_seeds(2024, 2)):
        graph = gen_graph(GraphSpec("gaussian", 30, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=120, epsilon=0.1, seed=signal_seed))
        for name in names:
            reports[draw, name] = learn(PINNED_PRESETS[name], X)[1]
    return reports


def test_solves_match_pinned_digests():
    names = {name for _, name in PINNED_DIGESTS}
    got = {key: solve_digest(report) for key, report in pinned_reports(names).items()}
    assert got == PINNED_DIGESTS


# float.hex of (kkt_residual, gap) on the PINNED_DIGESTS draws, the vertex
# starts of vsgl and mugl_o at rho2 = 0 included.  solve_digest covers neither: both come from the
# gradient at the returned point, through the projection, a 2-norm and a
# minimum, so any change to those reductions shows here first.
PINNED_CERTIFICATES = {
    (0, "mugl_o"): ("0x1.adde56d30ca35p-22", "0x1.125b820000000p-21"),
    (0, "mugl_l"): ("0x1.a0fe9c5e22a06p-22", "0x1.9f57000000000p-22"),
    (0, "log_model"): ("0x1.eb1e544c29844p-25", "0x1.74c0119000000p-21"),
    (0, "vsgl"): ("0x0.0p+0", "0x0.0p+0"),
    (0, "mugl_o rho2=1"): ("0x1.61589f9a2a707p-21", "0x1.b570d8e000000p-20"),
    (0, "mugl_l rho2=1"): ("0x1.e3e02d31d6b90p-22", "0x1.f82669c000000p-21"),
    (1, "mugl_o"): ("0x1.acfcf5532c840p-26", "0x1.ccf4400000000p-26"),
    (1, "mugl_l"): ("0x1.448d4433451a0p-25", "0x1.7b78180000000p-23"),
    (1, "log_model"): ("0x1.0cdf67072708ep-26", "0x1.8701748000000p-24"),
    (1, "vsgl"): ("0x0.0p+0", "0x0.0p+0"),
    (1, "mugl_o rho2=1"): ("0x1.09dfc26433dc1p-20", "0x1.f16e40f000000p-20"),
    (1, "mugl_l rho2=1"): ("0x1.66c32d56199f6p-22", "0x1.3849b01000000p-21"),
    (0, "mugl_o rho2=0"): ("0x0.0p+0", "0x0.0p+0"),
    (1, "mugl_o rho2=0"): ("0x0.0p+0", "0x0.0p+0"),
}


def test_solve_certificates_match_pinned_bits():
    names = {name for _, name in PINNED_CERTIFICATES}
    got = {
        key: (report.kkt_residual.hex(), report.gap.hex())
        for key, report in pinned_reports(names).items()
    }
    assert got == PINNED_CERTIFICATES


def test_default_fits_match_a_tight_solve():
    # A default fit must land where a solve with tol_kkt=1e-10 lands: the
    # same objective up to round-off and the same learned edges.  Both are
    # certified at their own tolerance.
    tight = SolverOptions(tol_kkt=1e-10, max_iters=300)
    for graph_seed, signal_seed in run_seeds(2024, 6):
        graph = gen_graph(GraphSpec("gaussian", 30, seed=graph_seed))
        X = gen_signals(graph.laplacian, SignalSpec(n=120, epsilon=0.1, seed=signal_seed))
        moments = empirical_moments(X)
        for name in ("mugl_o", "mugl_l", "log_model"):
            config, report = learn(ModelPreset(name), X)
            ctx = build_context(moments, config)
            ref = ls_pgd_solve(ctx, np.full(ctx.n_pairs, config.s / ctx.n_pairs), tight)
            assert report.certified and ref.termination == "kkt_tol"
            best = ref.objective_trace[-1]
            assert abs(report.objective_trace[-1] - best) <= 1e-9 * abs(best)
            assert np.array_equal(binarize(report.w_final), binarize(ref.w_final))
