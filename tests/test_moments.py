import math

import numpy as np
import pytest

from mugl.harness import ModelPreset, resolve_config
from mugl.laplacian import expand
from mugl.moments import (
    DELTA_MAX,
    EmpiricalMoments,
    RadiusParams,
    empirical_moments,
    read_signals_csv,
    rho1_radius,
    rho2_radius,
    write_signals_csv,
)

from oracles import expected_risk, rho1_mp, rho2_mp


def test_identical_columns_give_zero_covariance():
    c = np.array([1.0, -2.0, 0.5])
    mom = empirical_moments(np.column_stack([c, c]))
    assert np.array_equal(mom.mean, c)
    assert np.array_equal(mom.cov, np.zeros((3, 3)))
    assert mom.n == 2


def test_single_node_two_samples():
    mom = empirical_moments(np.array([[0.0, 2.0]]))
    assert mom.mean == pytest.approx(1.0)
    assert mom.cov == pytest.approx(np.array([[1.0]]))  # 1/n convention


def test_moments_match_double_loop_oracle():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 7))
    mom = empirical_moments(X)
    m, n = X.shape
    mean = np.array([sum(X[i, j] for j in range(n)) / n for i in range(m)])
    cov = np.zeros((m, m))
    for i in range(m):
        for k in range(m):
            cov[i, k] = sum((X[i, j] - mean[i]) * (X[k, j] - mean[k]) for j in range(n)) / n
    assert np.allclose(mom.mean, mean, atol=1e-12)
    assert np.allclose(mom.cov, cov, atol=1e-12)


def test_moments_input_validation():
    with pytest.raises(ValueError, match="at least 2"):
        empirical_moments(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        empirical_moments(np.array([[0.0, np.nan]]))
    with pytest.raises(ValueError, match="2-d"):
        empirical_moments(np.zeros(5))


def overflowing_signals(case):
    """5 x 20 finite signals whose second moments overflow."""
    Z = np.random.default_rng(0).standard_normal((5, 20))
    if case == "scaled":  # every covariance entry overflows
        return Z * 1e200
    if case == "offset":  # observations at +-1e170 about a zero mean
        return Z + np.where(np.arange(20) % 2 == 0, 1e170, -1e170)
    # nodes held at +-1e160: zero covariance, but the squared mean gap overflows
    return np.repeat(np.where(np.arange(5) % 2 == 0, 1e160, -1e160)[:, None], 20, axis=1)


@pytest.mark.parametrize("case", ["scaled", "offset", "held"])
def test_overflowing_second_moments_are_refused(case):
    # warnings are errors in this suite, so this also checks that none escapes
    with pytest.raises(ValueError, match="^signal second moments overflow; rescale the signals$"):
        empirical_moments(overflowing_signals(case))


def test_large_finite_second_moments_are_kept():
    # covariance entries near 1e300 still fit in a float
    mom = empirical_moments(overflowing_signals("scaled") * 1e-50)
    assert np.isfinite(mom.cov).all() and np.abs(mom.cov).max() > 1e299


def test_covariance_psd_and_rank_bounded():
    rng = np.random.default_rng(5)
    for m, n in [(3, 10), (5, 3), (6, 2)]:
        mom = empirical_moments(rng.standard_normal((m, n)))
        eig = np.linalg.eigvalsh(mom.cov)
        scale = np.linalg.norm(mom.cov)
        assert eig.min() >= -1e-10 * max(scale, 1.0)
        assert np.sum(eig > 1e-10 * max(scale, 1.0)) <= min(m, n - 1)


def test_translation_shifts_mean_only():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 6))
    shift = np.array([1.0, -3.0, 0.25, 7.0])
    mom = empirical_moments(X)
    mom2 = empirical_moments(X + shift[:, None])
    assert np.allclose(mom2.mean, mom.mean + shift, atol=1e-12)
    assert np.allclose(mom2.cov, mom.cov, atol=1e-12)


def test_expected_risk_closed_cases():
    L = expand(np.array([1.0, 2.0, 3.0]), 3)
    assert expected_risk(np.zeros(3), np.eye(3), L) == pytest.approx(np.trace(L))
    assert expected_risk(np.ones(3), np.eye(3), np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        expected_risk(np.zeros(2), np.eye(3), L)


def test_expected_risk_matches_trace_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        X = rng.standard_normal((4, 6))
        w = rng.random(6)
        L = expand(w, 4)
        mom = empirical_moments(X)
        direct = np.trace(X.T @ L @ X) / X.shape[1]
        value = expected_risk(mom.mean, mom.cov, L)
        assert value == pytest.approx(direct, rel=1e-10)


def test_rho1_unit_value_at_boundary_delta():
    # delta = e^-2 makes ln(1/delta) = 2; n = 16 e^2 then lands exactly at 1.
    params = RadiusParams(delta=DELTA_MAX)
    assert rho1_radius(params, 16 * math.e**2) == pytest.approx(1.0, rel=1e-12)


def test_rho1_quarter_sample_scaling():
    params = RadiusParams(delta=0.05)
    assert rho1_radius(params, 400) == pytest.approx(rho1_radius(params, 100) / 2, rel=1e-12)


def test_rho1_rejects_delta_outside_range():
    for delta in (0.2, 0.0, -0.1, 1.0):
        with pytest.raises(ValueError, match="delta"):
            RadiusParams(delta=delta)
    with pytest.raises(ValueError, match="sample count"):
        rho1_radius(RadiusParams(), 0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("field", ["c0", "c1", "c2", "sigma_norm"])
def test_radius_params_reject_a_nonpositive_constant(field, value):
    # the formulas' constants are fixed at 1 and the caller passes sigma_norm
    # to rho2_radius, so RadiusParams takes none of them, at any value
    with pytest.raises(TypeError, match=field):
        RadiusParams(**{field: value})


def test_rho2_rejects_empty_sizes():
    params = RadiusParams()
    with pytest.raises(ValueError, match="sample count must be positive, got n=0"):
        rho2_radius(params, 1.0, m=3, n=0)
    with pytest.raises(ValueError, match="node count must be positive, got m=0"):
        rho2_radius(params, 1.0, m=0, n=10)


def test_rho1_matches_arbitrary_precision():
    for delta in (0.01, 0.05, 0.1):
        for n in (10, 80, 1000):
            got = rho1_radius(RadiusParams(delta=delta), n)
            want = float(rho1_mp(delta, n))
            assert got == pytest.approx(want, rel=1e-12)


def test_rho2_matches_arbitrary_precision():
    for sigma in (1.0, 2.5):
        got = rho2_radius(RadiusParams(delta=0.05), sigma, m=20, n=80)
        want = float(rho2_mp(sigma, 0.05, 20, 80))
        assert got == pytest.approx(want, rel=1e-12)


def test_rho2_linear_in_sigma_norm():
    delta, m, n = 0.05, 12, 50
    base = rho2_radius(RadiusParams(delta=delta), 1.3, m, n)
    doubled = rho2_radius(RadiusParams(delta=delta), 2.6, m, n)
    fast = 4 * math.e**2 * math.log(2 / delta) ** 2 / n
    # doubling sigma_norm doubles the slow summand and leaves the fast one alone
    assert doubled == pytest.approx(2 * base - fast, rel=1e-12)


def test_rho2_requires_resolved_sigma_norm():
    # no sentinel stands in for the spectral norm: the caller passes one
    with pytest.raises(TypeError, match="sigma_norm"):
        rho2_radius(RadiusParams(), m=5, n=10)


def test_radii_monotone_in_n_and_delta():
    sigma = 2.0
    ns = [10, 30, 100, 300, 1000, 10**6]
    deltas = [0.12, 0.05, 0.01, 0.001]
    r1 = [rho1_radius(RadiusParams(delta=0.05), n) for n in ns]
    r2 = [rho2_radius(RadiusParams(delta=0.05), sigma, 15, n) for n in ns]
    assert all(a > b for a, b in zip(r1, r1[1:]))
    assert all(a > b for a, b in zip(r2, r2[1:]))
    d1 = [rho1_radius(RadiusParams(delta=d), 50) for d in deltas]
    d2 = [rho2_radius(RadiusParams(delta=d), sigma, 15, 50) for d in deltas]
    assert all(a < b for a, b in zip(d1, d1[1:]))
    assert all(a < b for a, b in zip(d2, d2[1:]))


def calibrated_rho2(moments, m):
    """The formula rho2 that resolve_config gives a robust preset."""
    return resolve_config(ModelPreset("mugl_o"), moments, m).rho2


def test_calibrated_plugs_in_sample_spectral_norm():
    # the formula rho2 plugs in the sample covariance's largest eigenvalue
    rng = np.random.default_rng(31)
    for m, n in ((2, 5), (5, 40), (9, 12)):
        mom = empirical_moments(rng.standard_normal((m, n)))
        sigma = np.linalg.eigvalsh(mom.cov)[-1]
        assert sigma == pytest.approx(np.linalg.norm(mom.cov, 2), rel=1e-12)
        assert calibrated_rho2(mom, m) == rho2_radius(RadiusParams(), sigma, m, n)


def test_calibrated_floors_a_zero_covariance():
    c = np.array([1.0, -2.0, 0.5, 4.0])
    mom = empirical_moments(np.column_stack([c, c, c]))
    tiny = np.finfo(float).tiny
    assert calibrated_rho2(mom, 4) == rho2_radius(RadiusParams(), tiny, 4, 3)


def test_calibrated_deterministic():
    rng = np.random.default_rng(29)
    A = rng.standard_normal((6, 6))
    S = A @ A.T
    rho2 = calibrated_rho2(EmpiricalMoments(np.zeros(6), S, 20), 6)
    assert calibrated_rho2(EmpiricalMoments(np.zeros(6), S, 20), 6) == rho2
    assert calibrated_rho2(EmpiricalMoments(np.zeros(6), S.copy(), 20), 6) == rho2


def test_signals_csv_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    X = rng.standard_normal((4, 9)) * 10.0 ** rng.integers(-8, 8, (4, 9))
    path = tmp_path / "signals.csv"
    write_signals_csv(path, X)
    header = path.read_text().splitlines()[0]
    assert header == "node_1,node_2,node_3,node_4"
    assert np.array_equal(read_signals_csv(path), X)


def test_write_signals_csv_rejects_a_non_matrix(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=r"must be 2-d, got shape \(3,\)"):
        write_signals_csv(path, np.zeros(3))
    assert not path.exists()


def test_signals_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node_1,node_2\n1.0\n")
    with pytest.raises(ValueError, match="row 2"):
        read_signals_csv(path)
    path.write_text("node_1,node_2\n1.0,x\n")
    with pytest.raises(ValueError, match="row 2"):
        read_signals_csv(path)
    path.write_text("node_1,wrong\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        read_signals_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_signals_csv(path)
    path.write_text("node_1,node_2\n")
    with pytest.raises(ValueError, match="no observation"):
        read_signals_csv(path)


def test_moments_dataclass_is_frozen():
    mom = EmpiricalMoments(np.zeros(2), np.zeros((2, 2)), 4)
    with pytest.raises(AttributeError):
        mom.n = 5
