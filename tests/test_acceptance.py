"""Acceptance gate: ten end-to-end criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict line;
without ``-s`` pytest still shows the lines for failing criteria.  Each
criterion also carries a wall-clock budget, included in its verdict.
"""

import json
import math
import time

import numpy as np

import oracles
from mugl import cli, harness, solvers
from mugl.datagen import GraphSpec, SignalSpec, gen_graph, gen_signals
from mugl.laplacian import adjoint, edge_count, expand
from mugl.moments import RadiusParams, empirical_moments, rho1_radius, rho2_radius
from mugl.objective import build_context, worst_case_cov_risk, worst_case_mean_risk


def verdict(num, ok, detail, dt, budget):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail} [{dt:.1f}s / {budget:.0f}s]"
    print(line)
    assert ok, line


def test_criterion_01_adjoint_identity():
    budget, t0 = 5.0, time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for m in range(2, 11):
        mbar = edge_count(m)
        for _ in range(1000):
            w = rng.standard_normal(mbar)
            M = rng.standard_normal((m, m))
            M = 0.5 * (M + M.T)
            lhs = float(np.trace(expand(w, m) @ M))
            rhs = float(w @ adjoint(M))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < budget
    verdict(1, ok, f"adjoint identity over 9000 pairs, worst rel err {worst:.2e}", dt, budget)


def test_criterion_02_worst_case_closed_forms():
    budget, t0 = 60.0, time.perf_counter()
    rng = np.random.default_rng(202)
    worst_gap = worst_excess = attain_err = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        w = oracles.random_interior(rng, edge_count(m), s=float(m))
        L = expand(w, m)
        mean = rng.standard_normal(m)
        rho1 = float(rng.uniform(0.1, 2.0))
        rho2 = float(rng.uniform(0.1, 2.0))

        closed = worst_case_mean_risk(L, mean, rho1)
        numeric = oracles.worst_mean_risk_ascent(L, mean, rho1)
        worst_gap = max(worst_gap, abs(closed - numeric) / max(abs(closed), 1e-12))

        A = rng.standard_normal((m, 2 * m))
        cov = A @ A.T / (2 * m)
        phi2 = worst_case_cov_risk(L, cov, rho2)
        attaining = cov + rho2 * L / np.linalg.norm(L)
        attain_err = max(
            attain_err, abs(float(np.trace(attaining @ L)) - phi2) / max(phi2, 1.0)
        )
        for _ in range(50):  # 200 instances x 50 = 10000 ball samples
            S = oracles.random_cov_in_ball(cov, rho2, rng)
            worst_excess = max(worst_excess, float(np.trace(S @ L)) - phi2)
    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and attain_err <= 1e-9 and worst_excess <= 1e-9 and dt < budget
    verdict(2, ok,
            f"closed forms on 200 instances: mean-risk oracle gap {worst_gap:.2e}, "
            f"attainment err {attain_err:.2e}, ball-sample excess {worst_excess:.2e}",
            dt, budget)


def test_criterion_03_gradient_finite_difference():
    budget, t0 = 30.0, time.perf_counter()
    from mugl.objective import gradient, objective_value

    configs = [
        dict(rho1=0.6, rho2=0.8, s=6.0),
        dict(rho1=0.6, rho2=0.8, s=6.0, alpha=0.4),
        dict(rho1=0.0, rho2=0.8, s=6.0),
    ]
    rng = np.random.default_rng(33)
    worst = 0.0
    mbar = edge_count(6)
    for kwargs in configs:
        ctx = oracles.random_context(rng, 6, n=12, **kwargs)
        for _ in range(100):
            w = oracles.random_interior(rng, mbar, s=6.0)
            g = gradient(ctx, w)
            for _ in range(3):
                d = oracles.random_tangent(rng, mbar)
                fd = oracles.fd_directional(lambda v: objective_value(ctx, v), w, d)
                got = float(g @ d)
                worst = max(worst, abs(fd - got) / max(abs(got), 1e-8))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < budget
    verdict(3, ok, f"finite differences, 3 configs x 100 points, worst rel err {worst:.2e}",
            dt, budget)


def test_criterion_04_simplex_projection():
    budget, t0 = 30.0, time.perf_counter()
    rng = np.random.default_rng(44)
    worst_oracle = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 6))
        s = float(rng.uniform(0.1, 10.0))
        v = rng.standard_normal(size) * 3
        got = solvers.project_simplex(v, s)
        want = oracles.project_simplex_bruteforce(v, s)
        worst_oracle = max(worst_oracle, float(np.abs(got - want).max()))

    worst_sum = worst_neg = worst_idem = 0.0
    V = rng.normal(size=(100_000, 190)) * 3
    for i in range(V.shape[0]):
        p = solvers.project_simplex(V[i], 20.0)
        worst_neg = min(worst_neg, float(p.min()))
        worst_sum = max(worst_sum, abs(float(p.sum()) - 20.0))
        worst_idem = max(worst_idem, float(np.abs(solvers.project_simplex(p, 20.0) - p).max()))
    dt = time.perf_counter() - t0
    ok = (
        worst_oracle <= 1e-9
        and worst_neg >= 0.0
        and worst_sum <= 1e-9
        and worst_idem <= 1e-12
        and dt < budget
    )
    verdict(4, ok,
            f"projection: oracle gap {worst_oracle:.2e}, sum err {worst_sum:.2e}, "
            f"min entry {worst_neg:.2e}, idempotence gap {worst_idem:.2e}", dt, budget)


def test_criterion_05_line_search_descent_and_convexity():
    budget, t0 = 120.0, time.perf_counter()
    worst_rise = -np.inf
    worst_resid = 0.0
    for k in range(20):
        graph = gen_graph(GraphSpec("gaussian", 10, seed=k))
        X = gen_signals(graph.laplacian, SignalSpec(n=100, epsilon=0.1, seed=7000 + k))
        _, report = harness.learn(harness.ModelPreset("mugl_l"), X)
        worst_rise = max(worst_rise, float(np.diff(report.objective_trace).max()))
        worst_resid = max(worst_resid, report.kkt_residual)

    rng = np.random.default_rng(55)
    ctx = oracles.random_context(rng, 8, n=20, rho1=0.0, rho2=0.8, s=8.0)
    mbar = edge_count(8)
    a = solvers.ls_pgd_solve(ctx, np.full(mbar, 8.0 / mbar))
    b = solvers.ls_pgd_solve(ctx, oracles.random_interior(rng, mbar, 8.0))
    start_gap = abs(a.objective_trace[-1] - b.objective_trace[-1])
    dt = time.perf_counter() - t0
    ok = worst_rise <= 1e-12 and worst_resid <= 1e-6 and start_gap <= 1e-6 and dt < budget
    verdict(5, ok,
            f"line search: max trace rise {worst_rise:.2e}, worst residual {worst_resid:.2e}, "
            f"convex two-start gap {start_gap:.2e}", dt, budget)


def test_criterion_06_sqrt_coefficients_positive():
    budget, t0 = 10.0, time.perf_counter()
    preset = harness.ModelPreset("mugl_o")
    min_a = np.inf
    for k in range(100):
        graph = gen_graph(GraphSpec("gaussian", 20, seed=k))
        X = gen_signals(graph.laplacian, SignalSpec(n=30, epsilon=0.1, seed=5000 + k))
        moments = empirical_moments(X)
        ctx = build_context(moments, harness.resolve_config(preset, moments, 20))
        min_a = min(min_a, float(ctx.sqrt_coeff.min()))
    dt = time.perf_counter() - t0
    ok = min_a > 0.0 and dt < budget
    verdict(6, ok, f"sqrt-term coefficients over 100 runs, min a_k = {min_a:.3e}", dt, budget)


def test_criterion_07_signal_model_moments():
    budget, t0 = 10.0, time.perf_counter()
    L = expand(oracles.path_weights(5), 5)
    eps = 0.3
    X = gen_signals(L, SignalSpec(n=50_000, epsilon=eps, seed=77))
    cov = empirical_moments(X).cov
    lam, U = np.linalg.eigh(L)
    keep = lam > 1e-10 * lam[-1]
    target = (U[:, keep] / lam[keep]) @ U[:, keep].T + eps**2 * np.eye(5)
    rel = float(np.linalg.norm(cov - target) / np.linalg.norm(target))
    dt = time.perf_counter() - t0
    ok = rel <= 0.05 and dt < budget
    verdict(7, ok, f"signal covariance vs pseudoinverse model, rel err {rel:.4f}", dt, budget)


def test_criterion_08_benchmark_ordering():
    budget, t0 = 300.0, time.perf_counter()
    summary = harness.run_experiment(
        GraphSpec("gaussian", 20, seed=0),
        SignalSpec(n=80, epsilon=0.1, seed=0),
        [harness.ModelPreset("mugl_l"), harness.ModelPreset("mugl_o"), harness.ModelPreset("vsgl")],
        n_seeds=20,
        master_seed=1234,
    )
    mean_f = {
        row["model"]: row["mean"] for row in summary["stats"] if row["metric"] == "f_measure"
    }
    order_l = mean_f["mugl_l"] > mean_f["vsgl"]
    order_o = mean_f["mugl_o"] > mean_f["vsgl"]
    band = mean_f["mugl_l"] >= 0.70
    dt = time.perf_counter() - t0
    ok = order_l and order_o and band and dt < budget
    verdict(8, ok,
            f"mean F: mugl_l={mean_f['mugl_l']:.4f}, mugl_o={mean_f['mugl_o']:.4f}, "
            f"vsgl={mean_f['vsgl']:.4f}; orderings vs vsgl "
            f"{'hold' if order_l and order_o else 'VIOLATED'}; "
            f"band mugl_l >= 0.70 {'met' if band else 'NOT met'}", dt, budget)


def test_criterion_09_radius_formulas():
    budget, t0 = 1.0, time.perf_counter()
    sigma, m = 1.5, 20
    worst = 0.0
    for delta in (0.001, 0.005, 0.01, 0.05, 0.1):
        params = RadiusParams(delta=delta)
        for n in (10, 30, 100, 300, 1000):
            got1 = rho1_radius(params, n)
            want1 = float(oracles.rho1_mp(delta, n))
            got2 = rho2_radius(params, sigma, m, n)
            want2 = float(oracles.rho2_mp(sigma, delta, m, n))
            worst = max(worst, abs(got1 - want1) / want1, abs(got2 - want2) / want2)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < budget
    verdict(9, ok, f"radius formulas vs 50-digit reference, worst rel err {worst:.2e}",
            dt, budget)


def test_criterion_10_bench_determinism(tmp_path):
    budget, t0 = 300.0, time.perf_counter()
    config = {
        "graph": {"family": "er", "m": 5, "p": 0.5},
        "signals": {"n": 20, "epsilon": 0.1},
        "presets": [{"name": "vsgl"}, {"name": "mugl_o"}],
        "n_seeds": 2,
        "seed": 7,
    }
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        code = cli.main([
            "bench", "--config", str(cfg), "--out", str(out), "--threads", threads, "--quiet",
        ])
        assert code == 0
        outputs.append((out / "summary.csv").read_bytes())
    dt = time.perf_counter() - t0
    identical = outputs[0] == outputs[1] == outputs[2]
    ok = identical and dt < budget
    verdict(10, ok,
            "summary CSV byte-identical across reruns and threads 1 vs 4"
            if identical else "summary CSV bytes differ", dt, budget)
