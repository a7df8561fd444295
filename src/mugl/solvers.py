"""Solvers over the scaled weight simplex.

* ls_pgd_solve: spectral projected gradient (Birgin, Martinez & Raydan
  2000).  Each iteration projects once, at a Barzilai-Borwein step built
  from the last change in iterate (s) and in gradient (y): the short step
  s @ y / y @ y on even iterations and the long step s @ s / s @ y on odd
  ones (alternating BB, Dai & Fletcher 2005; Dai, Hager, Schittkowski &
  Zhang 2006).  It then backtracks along the segment toward that
  projection until a monotone sufficient-decrease (Armijo) condition
  holds.  Long steps alone are mostly rejected at first by that test;
  alternating with short ones cuts both iterations and backtracks.
  Because the trial points are convex combinations of feasible points
  they stay feasible, and because a rejected trial can return +inf
  (log-barrier) the backtracking also acts as the domain guard: iterates
  never leave the barrier domain.
* vertex_solve: the closed form when no term is convex (rho2 = alpha =
  quad_weight = 0): g is linear plus the concave sqrt(a @ w), so its
  minimum over the simplex sits at a vertex s * e_k (Rockafellar 1970,
  Cor. 32.3.2).  Choosing it is O(p) in the number of node pairs p; the
  residual check on it costs one projection.

Stationarity is measured by the projected-gradient residual
||w - project(w - t * grad)|| / t, which vanishes exactly at constrained
stationary points.  ||project(w - t * grad) - w|| grows with t while its
ratio to t shrinks, so the step the iteration already projected at bounds
the residual at t = ETA_MAX from above without a second projection.  The
iterative solver stops on the disjunction of a step-size tolerance
(infinity norm of the update, tested after long steps only, since a short
step moves w less and would fire it early) and that residual bound.

The Frank-Wolfe gap grad @ w - s * min(grad) is zero exactly at
stationary points.  When rho1 = 0 (vsgl, log_model) the objective is convex
and the gap bounds g(w) - min g from above (Jaggi 2013).  When rho1 > 0 the
square-root term is concave, so the gap measures stationarity only and
bounds nothing about optimality (Lacoste-Julien 2016).  Both it and the
residual come from the one gradient evaluated at the returned point.

Every abort raises a RuntimeError: NonsmoothPointError where the
square-root term has no gradient, BarrierDomainError at a start outside the
barrier domain, LineSearchStallError when backtracking runs out, and a
plain RuntimeError for a non-finite gradient.  A returned SolveReport is
therefore always a finished fit (step_tol, kkt_tol or max_iters) with a
finite kkt_residual.  Its certified flag says whether that residual is at
most tol_kkt.  A step_tol stop can leave it above, and so can a step or a
projection gone wrong: the certificate, not a test of each step, is what
tells a trusted fit from one that is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import objective as obj

TERMINATIONS = ("step_tol", "kkt_tol", "max_iters")

# The spectral step is clamped to this interval.
SPECTRAL_STEP_MIN = 1e-10
SPECTRAL_STEP_MAX = 1e10

# The step of the first iteration, the fallback for both spectral steps
# wherever they are undefined (s @ y <= 0), and the probe step of the
# stationarity residual.  Read at call time, never bound as a default
# argument, so patching it changes every use.
ETA_MAX = 1.0

# Fixed constants of the Armijo backtracking: a trial w + scale * v is
# accepted once its value is at most f(w) + ARMIJO_SLOPE * scale * Gamma;
# otherwise scale shrinks by BACKTRACK_RATIO, at most MAX_BACKTRACKS times.
ARMIJO_SLOPE = 1e-4
BACKTRACK_RATIO = 0.5
MAX_BACKTRACKS = 60


class LineSearchStallError(RuntimeError):
    """Backtracking exhausted its budget without sufficient decrease."""


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget and stopping tolerances.

    The stationarity test stops once ||w - project(w - ETA_MAX * grad)|| /
    ETA_MAX <= tol_kkt is guaranteed; tol_step is the step-size tolerance.
    The steps and the Armijo constants are fixed (ETA_MAX, ARMIJO_SLOPE,
    BACKTRACK_RATIO, MAX_BACKTRACKS).
    """

    max_iters: int = 10_000
    tol_step: float = 1e-8
    tol_kkt: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not (self.tol_step >= 0 and self.tol_kkt >= 0):
            raise ValueError("tolerances must be nonnegative")


@dataclass
class SolveReport:
    """Final iterate plus the diagnostics needed to audit a run."""

    w_final: np.ndarray
    objective_trace: list[float]
    iters: int
    kkt_residual: float
    termination: str
    backtracks: int  # rejected line-search trial points
    # Frank-Wolfe gap: zero at stationary points, and an upper bound on
    # g(w_final) - min g only when rho1 = 0 (the objective is then convex)
    gap: float
    certified: bool  # kkt_residual <= tol_kkt of the fit's SolverOptions

    @property
    def converged(self) -> bool:
        return self.termination in ("step_tol", "kkt_tol")

    def record(self) -> dict:
        """The fit's fields of solve_report.json and of a bench per-fit record."""
        return {
            "iters": self.iters,
            "backtracks": self.backtracks,
            "termination": self.termination,
            "converged": self.converged,
            "certified": self.certified,
            "kkt_residual": self.kkt_residual,
            "gap": self.gap,
            "objective": self.objective_trace[-1],
        }


@lru_cache(maxsize=16)
def _ranks(p: int) -> np.ndarray:
    """Float ranks 1..p, cached for the most recent sizes and marked read-only."""
    ranks = np.arange(1, p + 1, dtype=float)
    ranks.flags.writeable = False
    return ranks


def project_simplex(v: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum(w) = s}.

    Sort-based thresholding: find the largest support for which shifting by
    a common offset keeps all supported entries positive, clamp the rest to
    zero.  The surviving entries are then shifted once more by the residual
    mass so the sum equals s to the last bit.  Non-finite entries raise
    ValueError naming them; v itself is never modified.

    The arithmetic is that of the textbook form

        u = sort(v)[::-1]; css = cumsum(u)
        rho = last k with u_k - (css_k - s) / k > 0
        w = max(v - (css_rho - s) / rho, 0); w[w > 0] += (s - sum(w)) / count

    operation for operation and in the same order, so the result is the same
    to the last bit; only the buffers differ, and the support test
    u_k - m_k > 0, m_k = (css_k - s) / k, is made as u_k > m_k.  For finite
    u_k and any m_k, +-inf included, fl(u_k - m_k) > 0 exactly when u_k > m_k:
    the difference of two distinct floats never rounds to zero (gradual
    underflow), and a NaN m_k fails both tests.  The descending sort is an
    ascending sort of -v negated back, ranks are exact floats, and the
    scatter on the support is written as w += (w > 0) * c: off the support w
    is +0.0 (maximum(x, 0.0) returns +0.0 for x = -0.0) and +0.0 + (+-0.0)
    is +0.0, while on it 1.0 * c is c.  cumsum and sum are np.add.accumulate
    (left to right) and np.add.reduce (numpy's pairwise sum), the routines
    behind np.cumsum and ndarray.sum, called without their Python wrappers,
    so every addition keeps its order.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not s > 0:
        raise ValueError(f"simplex scale must be positive, got s={s}")
    finite = np.isfinite(v)
    if not np.logical_and.reduce(finite):
        bad = np.flatnonzero(~finite)
        shown = ", ".join(f"v[{k}]={v[k]}" for k in bad[:5])
        more = f" and {bad.size - 5} more" if bad.size > 5 else ""
        raise ValueError(f"cannot project non-finite entries: {shown}{more}")
    u = np.negative(v)
    u.sort()
    np.negative(u, out=u)
    css = np.add.accumulate(u)
    margin = np.subtract(css, s)
    np.divide(margin, _ranks(v.size), out=margin)
    support = np.greater(u, margin)
    rho = v.size - int(support[::-1].argmax())
    tau = (css[rho - 1] - s) / rho
    w = np.subtract(v, tau, out=u)
    np.maximum(w, 0.0, out=w)
    pos = np.greater(w, 0.0, out=support)
    w += np.multiply(pos, (s - np.add.reduce(w)) / np.count_nonzero(pos), out=margin)
    return w


def _certificate(ctx: obj.ObjectiveContext, w: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """(stationarity residual at probe step ETA_MAX, Frank-Wolfe gap) at w,
    both from its one gradient g."""
    s = ctx.config.s
    step = w - project_simplex(w - ETA_MAX * g, s)
    residual = math.sqrt(float(step @ step)) / ETA_MAX
    return residual, float(g @ w) - s * float(np.minimum.reduce(g))


def _finite(g: np.ndarray) -> np.ndarray:
    """g itself; raises RuntimeError when the gradient g has a non-finite entry."""
    if not np.logical_and.reduce(np.isfinite(g)):
        raise RuntimeError(f"non-finite gradient ({np.count_nonzero(~np.isfinite(g))} entries)")
    return g


def is_concave(config: obj.ModelConfig) -> bool:
    """True when no term is convex: w @ quad_coeff plus the concave sqrt(a @ w)."""
    return config.rho2 == config.alpha == config.quad_weight == 0.0


def vertex_solve(ctx: obj.ObjectiveContext, opts: SolverOptions | None = None) -> SolveReport:
    """Exact minimizer of a concave objective: all mass s on the pair k
    minimizing g(s * e_k) / s = quad_coeff_k + sqrt(sqrt_coeff_k / s).

    The projection of w - t * grad returns w there for every t, so the
    residual is zero; where sqrt has no gradient (e.g. constant means),
    gradient raises NonsmoothPointError as in ls_pgd_solve.  Of opts only
    tol_kkt is read, for the certified flag.
    """
    if not is_concave(ctx.config):
        raise ValueError("vertex_solve needs rho2 = alpha = quad_weight = 0")
    opts = opts or SolverOptions()
    w = np.zeros(ctx.n_pairs)
    w[int(np.argmin(ctx.quad_coeff + np.sqrt(ctx.sqrt_coeff / ctx.config.s)))] = ctx.config.s
    trace = [obj.objective_value(ctx, w)]
    residual, gap = _certificate(ctx, w, _finite(obj.gradient(ctx, w)))
    return SolveReport(w, trace, 0, residual, "kkt_tol", 0, gap, residual <= opts.tol_kkt)


def spectral_step(s_k: np.ndarray, y_k: np.ndarray, long: bool) -> float:
    """Barzilai-Borwein step from the last changes in iterate (s_k) and
    gradient (y_k): the long step (BB1) s @ s / s @ y when long is true,
    else the short step (BB2) s @ y / y @ y, clamped to [SPECTRAL_STEP_MIN,
    SPECTRAL_STEP_MAX].  By Cauchy-Schwarz the short step never exceeds the
    long one.

    Where s @ y <= 0 (no positive curvature along s, e.g. a linear
    objective; y = 0 included) both steps are undefined and ETA_MAX is
    returned.
    """
    sy = float(s_k @ y_k)
    if not sy > 0.0:
        return ETA_MAX
    step = float(s_k @ s_k) / sy if long else sy / float(y_k @ y_k)
    return min(max(step, SPECTRAL_STEP_MIN), SPECTRAL_STEP_MAX)


def ls_pgd_solve(
    ctx: obj.ObjectiveContext, w0: np.ndarray, opts: SolverOptions | None = None
) -> SolveReport:
    """Spectral projected gradient with monotone Armijo backtracking.

    Per iteration: pick eta, ETA_MAX on the first iteration, then the short
    Barzilai-Borwein step on even iterations and the long one on odd ones
    (spectral_step), each falling back to ETA_MAX wherever it is undefined.
    Take the projected step v = project(w - eta * grad) - w, then accept
    w + BACKTRACK_RATIO^t * v for the smallest t whose objective sits below
    the Armijo line through the predicted decrease Gamma = grad @ v +
    ||v||^2 / (2 eta).  Gamma <= 0 by the projection theorem, up to the
    round-off that project_simplex's tests bound, so an accepted objective
    rises by round-off at most.  Trial points outside the log-barrier domain evaluate to
    +inf and are rejected like any other insufficient decrease.  The
    iteration stops with kkt_tol once ||v|| / min(eta, ETA_MAX) <= tol_kkt,
    which bounds the stationarity residual at probe step ETA_MAX; the
    report's kkt_residual is measured at that probe step, so a kkt_tol
    return reports at most tol_kkt up to round-off.  The step_tol stop
    (||scale * v||_inf <= tol_step) is tested only after a long step, so a
    step_tol return always has an odd iteration count; short steps alone
    would fire it early.

    Aborts raise (see the module docstring); callers that score many fits
    record one as a failure of that one fit.
    """
    opts = opts or SolverOptions()
    s = ctx.config.s
    # The one feasibility check of the solve: every later point is a convex
    # combination of w0 and projections, so it is evaluated unchecked.  Each
    # point's one record serves its value and, once accepted, its gradient.
    w = obj._check_feasible(ctx, w0).copy()
    pt = obj._point(ctx, w)
    f_cur = pt[0]
    if not math.isfinite(f_cur):
        raise obj.BarrierDomainError("infeasible start: objective not finite at w0")
    trace = [f_cur]
    termination = "max_iters"
    iters = 0
    backtracks = 0
    w_prev = g_prev = None
    # scratch for the gradient step w - eta * grad; never escapes the call
    moved = np.empty_like(w)
    for iters in range(1, opts.max_iters + 1):
        long_step = iters % 2 == 1
        g = _finite(obj._gradient(ctx, w, pt))
        if g_prev is None:
            eta = ETA_MAX
        else:
            eta = spectral_step(w - w_prev, g - g_prev, long_step)
        np.multiply(eta, g, out=moved)
        np.subtract(w, moved, out=moved)
        v = project_simplex(moved, s)
        v -= w
        # np.linalg.norm's own 1-D formula, sqrt(v @ v), without its wrapper
        v_norm = math.sqrt(float(v @ v))
        if v_norm / min(eta, ETA_MAX) <= opts.tol_kkt:
            termination = "kkt_tol"
            break
        predicted = float(g @ v) + v_norm**2 / (2.0 * eta)
        accepted = False
        scale = 1.0
        for rejected in range(MAX_BACKTRACKS + 1):
            trial = np.multiply(scale, v)
            trial += w
            trial_pt = obj._point(ctx, trial)
            f_trial = trial_pt[0]
            if f_trial <= f_cur + ARMIJO_SLOPE * scale * predicted:
                accepted = True
                break
            scale *= BACKTRACK_RATIO
        if not accepted:
            raise LineSearchStallError(
                f"no sufficient decrease within {MAX_BACKTRACKS} backtracks "
                f"at iteration {iters}"
            )
        backtracks += rejected
        w_prev, g_prev = w, g
        w, pt = trial, trial_pt
        f_cur = f_trial
        trace.append(f_cur)
        if long_step:
            step_inf = scale * max(float(np.maximum.reduce(v)), -float(np.minimum.reduce(v)))
            if step_inf <= opts.tol_step:
                termination = "step_tol"
                break
    # a kkt_tol stop already holds the gradient at w
    if termination != "kkt_tol":
        g = _finite(obj._gradient(ctx, w, pt))
    residual, gap = _certificate(ctx, w, g)
    return SolveReport(
        w, trace, iters, residual, termination, backtracks, gap, residual <= opts.tol_kkt
    )
