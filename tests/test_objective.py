import math

import numpy as np
import pytest

from mugl.laplacian import adjoint, expand
from mugl.moments import EmpiricalMoments, empirical_moments
from mugl.objective import (
    BarrierDomainError,
    InfeasiblePointError,
    ModelConfig,
    NonsmoothPointError,
    build_context,
    gradient,
    objective_value,
    worst_case_cov_risk,
    worst_case_mean_risk,
)
from oracles import (
    fd_directional,
    random_cov_in_ball,
    random_interior,
    random_tangent,
    worst_case_value,
    worst_mean_risk_ascent,
)


def context_from(mean, cov, n=10, **config_kwargs):
    mom = EmpiricalMoments(np.asarray(mean, float), np.asarray(cov, float), n)
    return build_context(mom, ModelConfig(**config_kwargs))


def test_sqrt_coeff_two_nodes():
    ctx = context_from([1.0, 0.0], np.zeros((2, 2)), rho1=1.0, s=1.0)
    assert np.array_equal(ctx.sqrt_coeff, [4.0])


def test_sqrt_coeff_constant_mean_vanishes():
    ctx = context_from([2.0, 2.0, 2.0], np.eye(3), rho1=3.0, s=1.0)
    assert np.array_equal(ctx.sqrt_coeff, np.zeros(3))


def test_sqrt_coeff_matches_matrix_route():
    rng = np.random.default_rng(41)
    mean = rng.standard_normal(5)
    rho1 = 0.7
    ctx = context_from(mean, np.eye(5), rho1=rho1, s=1.0)
    want = 4.0 * rho1**2 * adjoint(np.outer(mean, mean))
    assert np.allclose(ctx.sqrt_coeff, want, atol=1e-12)
    assert ctx.sqrt_coeff.min() >= 0.0


def test_quad_coeff_matches_matrix_route():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((5, 9))
    mom = empirical_moments(X)
    ctx = build_context(mom, ModelConfig(s=1.0))
    want = adjoint(mom.cov + np.outer(mom.mean, mom.mean))
    assert np.allclose(ctx.quad_coeff, want, atol=1e-12)


def test_context_arrays_read_only():
    ctx = context_from([1.0, 0.0], np.eye(2), rho1=1.0)
    with pytest.raises(ValueError):
        ctx.quad_coeff[0] = 0.0
    with pytest.raises(ValueError):
        ctx.sqrt_coeff[0] = 0.0


def test_build_context_validation():
    with pytest.raises(ValueError, match="at least two"):
        context_from([1.0], np.eye(1))
    with pytest.raises(ValueError, match="shape"):
        context_from([1.0, 2.0], np.eye(3))


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(rho1=-1)
    with pytest.raises(ValueError):
        ModelConfig(s=0)
    with pytest.raises(ValueError):
        ModelConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        ModelConfig(quad_weight=-0.1)


@pytest.mark.parametrize("field", ["rho1", "rho2", "alpha", "quad_weight"])
def test_model_config_rejects_a_nan_coefficient(field):
    # NaN > 0 is false, so a NaN coefficient would silently switch its term off
    with pytest.raises(ValueError, match="nonnegative"):
        ModelConfig(**{field: math.nan})


def test_objective_reduces_to_empirical_risk():
    rng = np.random.default_rng(47)
    X = rng.standard_normal((4, 8))
    mom = empirical_moments(X)
    ctx = build_context(mom, ModelConfig(s=2.0))
    w = random_interior(rng, 6, 2.0)
    L = expand(w, 4)
    direct = np.trace(X.T @ L @ X) / X.shape[1]
    assert objective_value(ctx, w) == pytest.approx(direct, rel=1e-10)


def test_objective_single_edge_frobenius():
    ctx = context_from(np.zeros(3), np.zeros((3, 3)), rho2=1.0, s=1.0)
    assert objective_value(ctx, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)


def test_objective_matches_matrix_form():
    rng = np.random.default_rng(53)
    for alpha in (0.0, 0.3):
        for _ in range(10):
            X = rng.standard_normal((5, 12)) + rng.standard_normal((5, 1))
            mom = empirical_moments(X)
            cfg = ModelConfig(rho1=0.4, rho2=0.9, s=3.0, alpha=alpha)
            ctx = build_context(mom, cfg)
            w = random_interior(rng, 10, cfg.s)
            L = expand(w, 5)
            matrix_form = (
                np.trace(X.T @ L @ X) / X.shape[1]
                + 2.0 * cfg.rho1 * math.sqrt(mom.mean @ L @ mom.mean)
                + cfg.rho2 * np.linalg.norm(L)
            )
            if alpha > 0:
                matrix_form -= cfg.alpha * np.log(np.diag(L)).sum()
            assert objective_value(ctx, w) == pytest.approx(matrix_form, rel=1e-10)


def test_objective_rejects_infeasible_points():
    ctx = context_from([1.0, 0.0], np.eye(2), s=1.0)
    with pytest.raises(InfeasiblePointError):
        objective_value(ctx, np.array([2.0]))
    with pytest.raises(InfeasiblePointError):
        objective_value(ctx, np.array([0.5, 0.5]))
    with pytest.raises(InfeasiblePointError):
        gradient(ctx, np.array([2.0]))


def test_barrier_value_infinite_outside_domain():
    # all weight on one pair isolates node 3; its degree hits the log
    ctx = context_from(np.zeros(3), np.eye(3), alpha=0.5, s=1.0)
    assert objective_value(ctx, np.array([1.0, 0.0, 0.0])) == math.inf
    with pytest.raises(BarrierDomainError):
        gradient(ctx, np.array([1.0, 0.0, 0.0]))


def test_gradient_constant_for_linear_objective():
    rng = np.random.default_rng(59)
    X = rng.standard_normal((4, 9))
    ctx = build_context(empirical_moments(X), ModelConfig(s=1.5))
    w1 = random_interior(rng, 6, 1.5)
    w2 = random_interior(rng, 6, 1.5)
    assert np.array_equal(gradient(ctx, w1), ctx.quad_coeff)
    assert np.array_equal(gradient(ctx, w1), gradient(ctx, w2))


FD_CONFIGS = [
    dict(rho1=0.6, rho2=0.8, s=2.0),
    dict(rho1=0.6, rho2=0.8, s=2.0, alpha=0.4),
    dict(rho1=0.0, rho2=0.8, s=2.0),
    dict(rho1=0.0, rho2=0.0, s=2.0, quad_weight=0.7),
]


@pytest.mark.parametrize("config_kwargs", FD_CONFIGS)
def test_gradient_matches_finite_differences(config_kwargs):
    rng = np.random.default_rng(61)
    X = rng.standard_normal((5, 12)) + rng.standard_normal((5, 1))
    ctx = build_context(empirical_moments(X), ModelConfig(**config_kwargs))
    for _ in range(20):
        w = random_interior(rng, 10, ctx.config.s)
        g = gradient(ctx, w)
        for _ in range(3):
            d = random_tangent(rng, 10)
            fd = fd_directional(lambda v: objective_value(ctx, v), w, d)
            analytic = float(g @ d)
            assert abs(fd - analytic) <= 1e-5 * max(abs(analytic), 1e-8)


def test_gradient_frobenius_term_only():
    rng = np.random.default_rng(67)
    ctx = context_from(np.zeros(4), np.zeros((4, 4)), rho2=1.0, s=1.0)
    for _ in range(10):
        w = random_interior(rng, 6, 1.0)
        L = expand(w, 4)
        want = adjoint(L) / np.linalg.norm(L)
        assert np.allclose(gradient(ctx, w), want, atol=1e-12)


def test_gradient_nonsmooth_floor():
    # constant mean makes a identically zero: the floor must trip
    ctx = context_from([3.0, 3.0, 3.0], np.eye(3), rho1=0.5, s=1.0)
    with pytest.raises(NonsmoothPointError):
        gradient(ctx, np.full(3, 1.0 / 3.0))
    # value itself stays finite there
    assert math.isfinite(objective_value(ctx, np.full(3, 1.0 / 3.0)))


def test_objective_dominates_plain_risk():
    rng = np.random.default_rng(71)
    X = rng.standard_normal((5, 10)) + rng.standard_normal((5, 1))
    mom = empirical_moments(X)
    plain = build_context(mom, ModelConfig(s=2.0))
    robust = build_context(mom, ModelConfig(rho1=0.3, rho2=0.5, s=2.0))
    rho2_only = build_context(mom, ModelConfig(rho2=0.5, s=2.0))
    for _ in range(20):
        w = random_interior(rng, 10, 2.0)
        base = objective_value(plain, w)
        assert objective_value(robust, w) > base
        assert objective_value(rho2_only, w) > base


def test_objective_monotone_in_radii():
    rng = np.random.default_rng(73)
    X = rng.standard_normal((4, 9)) + rng.standard_normal((4, 1))
    mom = empirical_moments(X)
    w = random_interior(rng, 6, 1.0)
    values = [
        objective_value(build_context(mom, ModelConfig(rho1=r1, rho2=r2)), w)
        for r1, r2 in [(0.0, 0.0), (0.1, 0.0), (0.1, 0.2), (0.5, 0.2), (0.5, 1.0)]
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_worst_case_mean_risk_examples():
    L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert worst_case_mean_risk(L2, np.array([1.0, 0.0]), 1.0) == pytest.approx(4.0)
    assert worst_case_mean_risk(L2, np.array([1.0, 0.0]), 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        worst_case_mean_risk(L2, np.zeros(2), -1.0)


def test_worst_case_mean_risk_kernel_mean():
    # a constant mean sits in the Laplacian nullspace; only rho1 survives
    L = expand(np.array([1.0, 1.0, 1.0]), 3)
    assert worst_case_mean_risk(L, np.full(3, 2.0), 1.0) == pytest.approx(1.0, abs=1e-9)
    assert worst_mean_risk_ascent(L, np.full(3, 2.0), 1.0) == pytest.approx(1.0, rel=1e-6)


def test_worst_case_mean_risk_matches_ascent_oracle():
    rng = np.random.default_rng(79)
    for trial in range(10):
        m = int(rng.integers(2, 6))
        w = random_interior(rng, m * (m - 1) // 2, 2.0)
        L = expand(w, m)
        mean = rng.standard_normal(m)
        rho1 = float(rng.uniform(0.1, 2.0))
        closed = worst_case_mean_risk(L, mean, rho1)
        est = worst_mean_risk_ascent(L, mean, rho1, seed=trial)
        assert closed == pytest.approx(est, rel=1e-6)


def test_worst_case_cov_risk_examples():
    L = expand(np.array([1.0, 0.0, 0.0]), 3)
    assert worst_case_cov_risk(L, np.zeros((3, 3)), 1.0) == pytest.approx(2.0)
    cov = np.diag([1.0, 2.0, 3.0])
    assert worst_case_cov_risk(L, cov, 0.0) == pytest.approx(np.sum(cov * L))
    with pytest.raises(ValueError):
        worst_case_cov_risk(L, cov, -0.5)


def test_worst_case_cov_risk_attained_never_exceeded():
    rng = np.random.default_rng(83)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        w = random_interior(rng, m * (m - 1) // 2, 1.5)
        L = expand(w, m)
        A = rng.standard_normal((m, m + 2))
        cov = A @ A.T / (m + 2)
        rho2 = float(rng.uniform(0.1, 1.5))
        best = worst_case_cov_risk(L, cov, rho2)
        attaining = cov + rho2 * L / np.linalg.norm(L)
        assert np.sum(attaining * L) == pytest.approx(best, rel=1e-12)
        assert np.linalg.eigvalsh(attaining).min() >= -1e-10
        for _ in range(200):
            sample = random_cov_in_ball(cov, rho2, rng)
            assert np.sum(sample * L) <= best + 1e-9


def test_worst_case_value_adds_constant():
    rng = np.random.default_rng(89)
    X = rng.standard_normal((4, 9)) + rng.standard_normal((4, 1))
    mom = empirical_moments(X)
    cfg = ModelConfig(rho1=0.7, rho2=0.3, s=2.0)
    ctx = build_context(mom, cfg)
    w = random_interior(rng, 6, 2.0)
    L = expand(w, 4)
    via_closed_forms = worst_case_mean_risk(L, mom.mean, cfg.rho1) + worst_case_cov_risk(
        L, mom.cov, cfg.rho2
    )
    assert worst_case_value(ctx, w) == pytest.approx(via_closed_forms, rel=1e-10)
    assert worst_case_value(ctx, w) == pytest.approx(
        objective_value(ctx, w) + cfg.rho1**2, rel=1e-12
    )
