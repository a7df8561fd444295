"""Independent reference implementations the tests check the package against.

Everything here trades speed for obviousness: exhaustive enumeration,
rejection-free ball sampling, textbook finite differences.  Nothing in the
package imports this module; it exists so the tests have a second opinion
that shares no code with the implementation under test.
"""

import collections
import itertools
import json
import math
import tempfile
from pathlib import Path

import mpmath
import numpy as np

from mugl import datagen, harness, objective, solvers
from mugl.laplacian import edge_count, pair_indices
from mugl.moments import empirical_moments
from mugl.objective import ModelConfig, build_context, gradient, objective_value

mpmath.mp.dps = 50


def rho1_mp(delta, n):
    """Mean-radius formula evaluated in 50-digit arithmetic."""
    e = mpmath.e
    return mpmath.sqrt(4 * e**2 * mpmath.log(1 / mpmath.mpf(delta)) ** 2 / n)


def rho2_mp(sigma, delta, m, n):
    """Covariance-radius formula evaluated in 50-digit arithmetic."""
    e = mpmath.e
    delta = mpmath.mpf(delta)
    slow = (
        4 * (2 * e / 3) ** mpmath.mpf("1.5")
        * mpmath.log(2 * mpmath.mpf(m) ** mpmath.mpf("1.5") / delta) ** mpmath.mpf("1.5")
        * sigma / mpmath.sqrt(n)
    )
    fast = 4 * e**2 * mpmath.log(2 / delta) ** 2 / n
    return slow + fast


def expected_risk(mean, cov, L):
    """Laplacian quadratic risk trace(cov @ L) + mean @ L @ mean."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    L = np.asarray(L, dtype=float)
    if cov.shape != L.shape or mean.size != L.shape[0]:
        raise ValueError(f"shape mismatch: mean {mean.shape}, cov {cov.shape}, L {L.shape}")
    return float(np.sum(cov * L) + mean @ L @ mean)


def linear_to_pair(k, m):
    """1-based (i, j) of linear index k; inverse of pair_to_linear."""
    mbar = edge_count(m)
    if not 1 <= k <= mbar:
        raise ValueError(f"linear index {k} out of range 1..{mbar} for m={m}")
    rows, cols = pair_indices(m)
    return int(rows[k - 1]) + 1, int(cols[k - 1]) + 1


def is_laplacian(L):
    """Check symmetry, nonpositive off-diagonals, and zero row sums, each to
    1e-9 * max(1, ||L||_F)."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        return False
    bound = 1e-9 * max(1.0, float(np.linalg.norm(L)))
    if np.abs(L - L.T).max() > bound:
        return False
    off = L - np.diag(np.diag(L))
    if off.max() > bound:
        return False
    return bool(np.abs(L.sum(axis=1)).max() <= bound)


def worst_case_value(ctx, w):
    """Full worst-case risk at w, i.e. g(w) plus the constant rho1^2 that the
    minimized objective drops."""
    return objective_value(ctx, w) + ctx.config.rho1**2


def stationarity_residual(ctx, w):
    """||w - project(w - ETA_MAX * grad)||_2 / ETA_MAX, zero exactly at
    constrained stationary points.

    solvers.ETA_MAX is read at call time, so a test that patches it gets the
    residual at the patched probe step, the one a solve's report carries.
    """
    eta = solvers.ETA_MAX
    moved = solvers.project_simplex(w - eta * gradient(ctx, w), ctx.config.s)
    return float(np.linalg.norm(w - moved)) / eta


def path_weights(m):
    """Weight vector of the unit-weight path 1-2-...-m."""
    rows, cols = pair_indices(m)
    w = np.zeros(edge_count(m))
    w[rows - cols == 1] = 1.0
    return w


def degrees_in_pair_order(w, m):
    """Weighted degrees in plain Python floats: degree j is 0.0 plus node j's
    pair weights, added one at a time in increasing pair index."""
    rows, cols = pair_indices(m)
    deg = [0.0] * m
    for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        deg[i] += float(w[k])
        deg[j] += float(w[k])
    return np.array(deg)


def pair_sums_in_pair_order(d):
    """d[cols[k]] + d[rows[k]] for every pair k, in plain Python floats."""
    rows, cols = pair_indices(len(d))
    return np.array([float(d[j]) + float(d[i]) for i, j in zip(rows.tolist(), cols.tolist())])


def spread_weights(rng, n_pairs):
    """Pair weights whose magnitudes span 1e-8 to 1e8, about a fifth of
    them exactly zero."""
    w = 10.0 ** rng.uniform(-8.0, 8.0, n_pairs)
    w[rng.random(n_pairs) < 0.2] = 0.0
    return w


def connected_union_find(w, m):
    """True when the positive-weight pairs connect all m nodes (union-find)."""
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = pair_indices(m)
    for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        if w[k] > 0:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(m)}) == 1


def random_interior(rng, n_pairs, s):
    """A strictly interior point of the scale-s simplex."""
    u = rng.uniform(0.5, 1.5, n_pairs)
    return s * u / u.sum()


def random_tangent(rng, n_pairs):
    """A unit vector with zero entry sum, i.e. tangent to the simplex slice."""
    d = rng.standard_normal(n_pairs)
    d -= d.mean()
    return d / np.linalg.norm(d)


def fd_directional(f, w, d, h=1e-6):
    """Central finite difference of f at w along direction d."""
    return (f(w + h * d) - f(w - h * d)) / (2.0 * h)


def random_context(rng, m, n=8, **config_kwargs):
    """Objective context built from random signals with a generic mean."""
    X = rng.standard_normal((m, n)) + rng.standard_normal((m, 1))
    return build_context(empirical_moments(X), ModelConfig(**config_kwargs))


def project_simplex_bruteforce(v, s):
    """Euclidean projection onto {w >= 0, sum(w) = s} by support enumeration.

    The projection restricted to its support is a uniform shift of v there,
    so trying every support, keeping the feasible candidates, and returning
    the one closest to v recovers the exact answer.  Exponential in len(v).
    """
    v = np.asarray(v, dtype=float)
    best, best_dist = None, np.inf
    for r in range(1, v.size + 1):
        for support in itertools.combinations(range(v.size), r):
            support = list(support)
            shift = (v[support].sum() - s) / len(support)
            w = np.zeros_like(v)
            w[support] = v[support] - shift
            if w[support].min() < -1e-12:
                continue
            dist = np.linalg.norm(w - v)
            if dist < best_dist:
                best, best_dist = w, dist
    return best


def project_simplex_reference(v: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum(w) = s}, in its textbook form.

    This is the sort-based projection exactly as the package first wrote
    it, one temporary per step; ``solvers.project_simplex`` must match it
    byte for byte.

    Sort-based thresholding: find the largest support for which shifting by
    a common offset keeps all supported entries positive, clamp the rest to
    zero.  The surviving entries are then shifted once more by the residual
    mass so the sum equals s to the last bit.  Non-finite entries raise
    ValueError naming them.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not s > 0:
        raise ValueError(f"simplex scale must be positive, got s={s}")
    finite = np.isfinite(v)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        shown = ", ".join(f"v[{k}]={v[k]}" for k in bad[:5])
        more = f" and {bad.size - 5} more" if bad.size > 5 else ""
        raise ValueError(f"cannot project non-finite entries: {shown}{more}")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    support = u - (css - s) / idx > 0
    rho = int(np.nonzero(support)[0][-1]) + 1
    tau = (css[rho - 1] - s) / rho
    w = np.maximum(v - tau, 0.0)
    pos = w > 0
    w[pos] += (s - w.sum()) / pos.sum()
    return w


def face_direction_reference(ctx, w, pt, g, active, cg_tol):
    """solvers._face_direction as first written: the active weights and
    their mass gathered by boolean indexing, and the product H d0 always
    made, also where d0 is the zero vector.  CG's forcing term is
    min(cap, ||r0||) with cap 0.1 on the full simplex face and 0.5 on a face
    with active pairs.  The package must match it byte for byte, signed
    zeros included.
    """
    n_active = int(active.sum())
    free = (~active).astype(float)
    n_free = w.size - n_active

    def reduce(x):
        if n_active == 0:
            x -= x.sum() / w.size
        else:
            x *= free
            x -= free * (x.sum() / n_free)
        return x

    r = -g
    if n_active:
        d0 = np.zeros_like(w)
        d0[active] = -w[active]
        d0 += free * (float(w[active].sum()) / n_free)
        r = r - objective._hessian_vector(ctx, w, pt, d0)
    r = reduce(r)
    rr = float(r @ r)
    if not rr > 0.0:
        return None
    cap = 0.5 if n_active else 0.1
    target = max(min(cap * cap, rr) * rr, cg_tol * cg_tol)
    e = np.zeros_like(w)
    p = r.copy()
    for k in range(n_free):
        hp = reduce(objective._hessian_vector(ctx, w, pt, p))
        curvature = float(p @ hp)
        if not curvature > 0.0:
            if k == 0:
                return None
            break
        step = rr / curvature
        e = e + step * p
        r = r - step * hp
        rr_next = float(r @ r)
        if rr_next <= target:
            break
        p = p * (rr_next / rr) + r
        rr = rr_next
    e = reduce(e)
    if n_active:
        e = e + d0
    return e


def solver_work(presets, draws):
    """{name: {"iters", "hessian_vector_products", "projections",
    "backtracks", "newton_searches", "fallback_searches", "uncertified"}},
    each summed over one harness.learn fit per draw.

    presets maps a name to a harness.ModelPreset, and draws is an iterable
    of signal matrices X.  Products, projections and searches are counted by
    wrapping objective._hessian_vector, solvers.project_simplex and
    solvers._search for the duration of the call.  A search is counted by
    its budget: NEWTON_BACKTRACKS along a Newton direction, MAX_BACKTRACKS
    along the projected-gradient fallback.  Iterations, backtracks and
    uncertified fits come from each fit's report.
    """
    searches = {solvers.NEWTON_BACKTRACKS: "newton_searches",
                solvers.MAX_BACKTRACKS: "fallback_searches"}
    targets = {(objective, "_hessian_vector"): lambda args: "hessian_vector_products",
               (solvers, "project_simplex"): lambda args: "projections",
               (solvers, "_search"): lambda args: searches[args[-1]]}
    originals = {target: getattr(*target) for target in targets}
    calls = collections.Counter()

    def counting(target, key_of):
        original = originals[target]

        def wrapped(*args):
            calls[key_of(args)] += 1
            return original(*args)

        return wrapped

    keys = ("iters", "hessian_vector_products", "projections", "backtracks",
            "newton_searches", "fallback_searches", "uncertified")
    work = {name: dict.fromkeys(keys, 0) for name in presets}
    for target, key_of in targets.items():
        setattr(*target, counting(target, key_of))
    try:
        for X in draws:
            for name, preset in presets.items():
                calls.clear()
                _, report = harness.learn(preset, X)
                calls.update(iters=report.iters, backtracks=report.backtracks,
                             uncertified=not report.certified)
                for key in keys:
                    work[name][key] += calls[key]
    finally:
        for target, original in originals.items():
            setattr(*target, original)
    return work


def indicator_pair(tp, fp, fn, tn):
    """Boolean (pred, truth) vectors whose confusion counts are tp, fp, fn
    and tn.  A boolean prediction binarizes to itself at any threshold in
    [0, 1), so metric_record(pred, truth) scores exactly these counts."""
    sizes = [tp, fp, fn, tn]
    return (np.repeat([True, True, False, False], sizes),
            np.repeat([True, False, True, False], sizes))


def gaussian_draws(master_seed, count, m=20, n=80):
    """Signal matrices of the first count draws of master_seed on Gaussian
    graphs, the headline shape by default."""
    for graph_seed, signal_seed in harness.run_seeds(master_seed, count):
        graph = datagen.gen_graph(datagen.GraphSpec("gaussian", m, seed=graph_seed))
        yield datagen.gen_signals(
            graph.laplacian, datagen.SignalSpec(n=n, epsilon=0.1, seed=signal_seed)
        )


def worst_mean_risk_ascent(L, mean, rho1, n_starts=12, iters=5000, step=0.05, seed=0):
    """sup of mu @ L @ mu over the ellipsoid (mu-mean) @ L @ (mu-mean) <= rho1^2.

    Solved numerically: in the whitened eigenbasis of L the ellipsoid is a
    plain ball and the objective is the squared norm, so run projected
    gradient ascent from several random starts and keep the best value.
    Directions in the kernel of L are unconstrained but carry no objective,
    so they are dropped up front.
    """
    L = np.asarray(L, dtype=float)
    lam, U = np.linalg.eigh(L)
    keep = lam > 1e-12 * max(float(lam[-1]), 1.0)
    assert keep.any(), "oracle needs a nonzero Laplacian"
    z_hat = np.sqrt(lam[keep]) * (U[:, keep].T @ np.asarray(mean, dtype=float))
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(n_starts):
        z = z_hat + rho1 * rng.standard_normal(z_hat.size)
        for _ in range(iters):
            z_next = z * (1.0 + 2.0 * step)
            gap = np.linalg.norm(z_next - z_hat)
            if gap > rho1:
                z_next = z_hat + (z_next - z_hat) * (rho1 / gap)
            if np.linalg.norm(z_next - z) <= 1e-14 * max(np.linalg.norm(z), 1.0):
                z = z_next
                break
            z = z_next
        best = max(best, float(z @ z))
    return best


def random_cov_in_ball(cov, rho2, rng):
    """A symmetric matrix at Frobenius distance <= rho2 from cov."""
    m = cov.shape[0]
    D = rng.standard_normal((m, m))
    D = 0.5 * (D + D.T)
    return cov + D * (rho2 * rng.random() / np.linalg.norm(D))


# The JSON artefact format spelled out value by value: two-space
# indentation, one member per line, strings quoted by json.dumps, floats
# as their shortest round-trip repr, NaN and infinities refused, and keys
# and other values handled as the json module handles them.  The package's
# cli.dumps must produce the same bytes and raise the same errors.
def dumps_reference(doc, indent: int = 0) -> str:
    """JSON text of a document of dicts/lists/strs/numbers/bools/None."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [
            f"{pad}  {_key_reference(k)}: {dumps_reference(v, indent + 1)}"
            for k, v in doc.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = [f"{pad}  {dumps_reference(v, indent + 1)}" for v in doc]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if doc is None:
        return "null"
    if isinstance(doc, float):
        if not math.isfinite(doc):
            raise ValueError(f"Out of range float values are not JSON compliant: {doc!r}")
        return float.__repr__(doc)
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _key_reference(key) -> str:
    """A dict key as a JSON string: a str by its characters, a number, bool
    or None by its JSON token."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{dumps_reference(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def first_refused_line(read, path):
    """1-based number of the first line of the file at path whose prefix
    ``read`` refuses, or None when no line is refused.

    Writes the file's first k lines to a scratch file for k = 2, 3, ...,
    splitting the bytes at \\n, \\r\\n and \\r only, and reads each in turn:
    a linear scan, where the readers bisect.  A refusal with the same message
    as the header line alone gets (a bad header, or no data rows yet) names
    no line, so it does not count.
    """
    lines = Path(path).read_bytes().splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / Path(path).name

        def refusal(k):
            prefix.write_bytes(b"".join(lines[:k]))
            try:
                read(prefix)
            except ValueError as exc:
                return str(exc)
            return None

        header_only = refusal(1)
        for k in range(2, len(lines) + 1):
            message = refusal(k)
            if message is not None and message != header_only:
                return k
    return None
