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
* vertex_solve: the closed form for a linear objective (no radii, no
  penalty), whose minimum over the simplex sits at the vertex s * e_k with
  k = argmin(quad_coeff).  Choosing the vertex is O(p) in the number of
  node pairs p; the residual check on it costs one projection.

Stationarity is measured by the projected-gradient residual
||w - project(w - t * grad)|| / t, which vanishes exactly at constrained
stationary points.  ||project(w - t * grad) - w|| grows with t while its
ratio to t shrinks, so the step the iteration already projected at bounds
the residual at t = eta_max from above without a second projection.  The
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
plain RuntimeError for a non-finite gradient or a projected step that
predicts an increase.  A returned SolveReport is therefore always a
finished fit (step_tol, kkt_tol or max_iters) with a finite kkt_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import objective as obj

TERMINATIONS = ("step_tol", "kkt_tol", "max_iters")

# Armijo predicted-decrease quantities must be nonpositive up to round-off;
# anything above this signals a corrupted gradient and aborts loudly.
DECREASE_SLACK = 1e-12

DEFAULT_RESIDUAL_PROBE = 1e-3

# The spectral step is clamped to this interval.
SPECTRAL_STEP_MIN = 1e-10
SPECTRAL_STEP_MAX = 1e10


class LineSearchStallError(RuntimeError):
    """Backtracking exhausted its budget without sufficient decrease."""


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget, step sizes, and stopping tolerances.

    eta_max is the step of the first iteration and the fallback for both
    spectral steps wherever they are undefined (s @ y <= 0); it is also the
    probe step of the stationarity test, which stops once ||w - project(w -
    eta_max * grad)|| / eta_max <= tol_kkt is guaranteed.  beta and gamma
    are the Armijo acceptance slope and backtracking ratio; tol_step is the
    step-size tolerance; max_backtracks caps the backtracking exponent.
    """

    max_iters: int = 10_000
    eta_max: float = 1.0
    beta: float = 1e-4
    gamma: float = 0.5
    tol_step: float = 1e-8
    tol_kkt: float = 1e-6
    max_backtracks: int = 60

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not self.eta_max > 0:
            raise ValueError(f"eta_max must be positive, got {self.eta_max}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.tol_step < 0 or self.tol_kkt < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be positive, got {self.max_backtracks}")


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

    @property
    def converged(self) -> bool:
        return self.termination in ("step_tol", "kkt_tol")


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
    to the last bit; only the buffers differ.  The descending sort is an
    ascending sort of -v negated back, ranks are exact floats, and the
    scatter on the support is written as w += (w > 0) * c: off the support w
    is +0.0 (maximum(x, 0.0) returns +0.0 for x = -0.0) and +0.0 + (+-0.0)
    is +0.0, while on it 1.0 * c is c.
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
    u = np.negative(v)
    u.sort()
    np.negative(u, out=u)
    css = np.cumsum(u)
    margin = np.subtract(css, s)
    np.divide(margin, _ranks(v.size), out=margin)
    np.subtract(u, margin, out=margin)
    support = np.greater(margin, 0.0)
    rho = v.size - int(np.argmax(support[::-1]))
    tau = (css[rho - 1] - s) / rho
    w = np.subtract(v, tau, out=u)
    np.maximum(w, 0.0, out=w)
    pos = np.greater(w, 0.0, out=support)
    w += np.multiply(pos, (s - w.sum()) / np.count_nonzero(pos), out=margin)
    return w


def stationarity_residual(
    ctx: obj.ObjectiveContext,
    w: np.ndarray,
    probe_step: float = DEFAULT_RESIDUAL_PROBE,
) -> float:
    """||w - project(w - probe_step * grad)||_2 / probe_step.

    Zero exactly at constrained stationary points, for any probe step.
    Raises RuntimeError when the gradient has a non-finite entry.
    """
    return _certificate(ctx, w, _finite(obj.gradient(ctx, w)), probe_step)[0]


def _certificate(
    ctx: obj.ObjectiveContext, w: np.ndarray, g: np.ndarray, probe_step: float
) -> tuple[float, float]:
    """(stationarity residual at probe_step, Frank-Wolfe gap) at w, both
    from its one gradient g."""
    if not probe_step > 0:
        raise ValueError(f"probe step must be positive, got {probe_step}")
    s = ctx.config.s
    moved = project_simplex(w - probe_step * g, s)
    residual = float(np.linalg.norm(w - moved)) / probe_step
    return residual, float(g @ w) - s * float(g.min())


def _finite(g: np.ndarray) -> np.ndarray:
    """g itself; raises RuntimeError when the gradient g has a non-finite entry."""
    if not np.isfinite(g).all():
        raise RuntimeError(f"non-finite gradient ({np.count_nonzero(~np.isfinite(g))} entries)")
    return g


def is_linear(config: obj.ModelConfig) -> bool:
    """True when the objective reduces to w @ quad_coeff (no radii, no penalty)."""
    return (
        config.rho1 == 0.0
        and config.rho2 == 0.0
        and config.regularizer == "none"
        and config.quad_weight == 0.0
    )


def vertex_solve(ctx: obj.ObjectiveContext) -> SolveReport:
    """Exact minimizer of a linear objective: all mass on argmin(quad_coeff).

    The projection of w - t * grad returns w at that vertex for every t, so
    the reported residual is zero and no iteration is taken.
    """
    if not is_linear(ctx.config):
        raise ValueError("vertex_solve needs a linear objective (zero radii, no penalty)")
    w = np.zeros(ctx.n_pairs)
    w[int(np.argmin(ctx.quad_coeff))] = ctx.config.s
    trace = [obj.objective_value(ctx, w)]
    residual, gap = _certificate(ctx, w, _finite(obj.gradient(ctx, w)), DEFAULT_RESIDUAL_PROBE)
    return SolveReport(w, trace, 0, residual, "kkt_tol", 0, gap)


def spectral_step(s_k: np.ndarray, y_k: np.ndarray, fallback: float) -> float:
    """Long Barzilai-Borwein step (BB1) s @ s / s @ y, clamped to
    [SPECTRAL_STEP_MIN, SPECTRAL_STEP_MAX].

    s_k and y_k are the last changes in iterate and gradient.  Where s @ y
    <= 0 (no positive curvature along s, e.g. a linear objective) the step
    is undefined and fallback is returned.
    """
    sy = float(s_k @ y_k)
    if not sy > 0.0:
        return fallback
    return min(max(float(s_k @ s_k) / sy, SPECTRAL_STEP_MIN), SPECTRAL_STEP_MAX)


def short_spectral_step(s_k: np.ndarray, y_k: np.ndarray, fallback: float) -> float:
    """Short Barzilai-Borwein step (BB2) s @ y / y @ y, clamped like
    spectral_step and undefined under the same condition, s @ y <= 0, which
    also covers y = 0.  By Cauchy-Schwarz it never exceeds the long step.
    """
    sy = float(s_k @ y_k)
    if not sy > 0.0:
        return fallback
    return min(max(sy / float(y_k @ y_k), SPECTRAL_STEP_MIN), SPECTRAL_STEP_MAX)


def ls_pgd_solve(
    ctx: obj.ObjectiveContext, w0: np.ndarray, opts: SolverOptions | None = None
) -> SolveReport:
    """Spectral projected gradient with monotone Armijo backtracking.

    Per iteration: pick eta, eta_max on the first iteration, then the short
    Barzilai-Borwein step (short_spectral_step) on even iterations and the
    long one (spectral_step) on odd ones, each falling back to eta_max
    wherever it is undefined.  Take the projected step
    v = project(w - eta * grad) - w, then accept w + gamma^t * v for the
    smallest t whose objective sits below the Armijo line through the
    predicted decrease Gamma = grad @ v + ||v||^2 / (2 eta).  Gamma <= 0 by
    the projection theorem, so accepted objectives never increase.  Trial
    points outside the log-barrier domain evaluate to +inf and are rejected
    like any other insufficient decrease.  The iteration stops with
    kkt_tol once ||v|| / min(eta, eta_max) <= tol_kkt, which bounds the
    stationarity residual at probe step eta_max; the report's kkt_residual
    is measured at that probe step, so a kkt_tol return reports at most
    tol_kkt up to round-off.  The step_tol stop (||scale * v||_inf <=
    tol_step) is tested only after a long step, so a step_tol return always
    has an odd iteration count; short steps alone would fire it early.

    Aborts raise (see the module docstring); callers that score many fits
    record one as a failure of that one fit.
    """
    opts = opts or SolverOptions()
    s = ctx.config.s
    w = np.asarray(w0, dtype=float).copy()
    # The one feasibility check of the solve: every later point is a convex
    # combination of w0 and projections, so it is evaluated unchecked, and
    # its degrees serve both its value and, once accepted, its gradient.
    f_cur = obj.objective_value(ctx, w)
    deg = ctx.degrees(w)
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
        g = _finite(obj._gradient(ctx, w, deg))
        if g_prev is None:
            eta = opts.eta_max
        else:
            step_rule = spectral_step if long_step else short_spectral_step
            eta = step_rule(w - w_prev, g - g_prev, opts.eta_max)
        np.multiply(eta, g, out=moved)
        np.subtract(w, moved, out=moved)
        v = project_simplex(moved, s)
        v -= w
        v_norm = float(np.linalg.norm(v))
        if v_norm / min(eta, opts.eta_max) <= opts.tol_kkt:
            termination = "kkt_tol"
            break
        predicted = float(g @ v) + v_norm**2 / (2.0 * eta)
        if predicted > DECREASE_SLACK:
            raise RuntimeError(
                f"projected step predicts increase ({predicted:.3g} > 0); "
                "gradient and projection are inconsistent"
            )
        accepted = False
        scale = 1.0
        for rejected in range(opts.max_backtracks + 1):
            trial = np.multiply(scale, v)
            trial += w
            trial_deg = ctx.degrees(trial)
            f_trial = obj._value(ctx, trial, trial_deg)
            if f_trial <= f_cur + opts.beta * scale * predicted:
                accepted = True
                break
            scale *= opts.gamma
        if not accepted:
            raise LineSearchStallError(
                f"no sufficient decrease within {opts.max_backtracks} backtracks "
                f"at iteration {iters}"
            )
        backtracks += rejected
        step_inf = scale * max(float(v.max()), -float(v.min()))
        w_prev, g_prev = w, g
        w, deg = trial, trial_deg
        f_cur = f_trial
        trace.append(f_cur)
        if long_step and step_inf <= opts.tol_step:
            termination = "step_tol"
            break
    residual, gap = _certificate(ctx, w, _finite(obj._gradient(ctx, w, deg)), opts.eta_max)
    return SolveReport(w, trace, iters, residual, termination, backtracks, gap)
