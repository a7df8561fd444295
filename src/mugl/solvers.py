"""One solver over the scaled weight simplex, and where it starts.

* ls_pgd_solve: projected Newton-CG.  Each iteration identifies the
  epsilon-active set (Bertsekas 1982), sends those weights to zero and
  minimizes a quadratic model over the remaining face by conjugate
  gradients (CG) with an inexact-Newton forcing term (Dembo, Eisenstat &
  Steihaug 1982), truncated at nonpositive curvature (Steihaug 1983).  The
  model's Hessian-vector products (objective._hessian_vector) cost O(p)
  in the number of node pairs p and need no matrix.  One monotone Armijo
  search (_search) runs along that direction; where the model has no
  positive curvature (a linear or concave objective) or no Newton trial is
  accepted, the same search runs along the projected-gradient step z - w
  instead.  Trial points are convex combinations of feasible points or
  projections, so they stay feasible, and because a trial outside the
  log-barrier domain evaluates to +inf the backtracking also acts as the
  domain guard: iterates never leave the barrier domain.
* start_point: where ls_pgd_solve starts.  When no term is convex (rho2 =
  alpha = quad_weight = 0), g is linear plus the concave sqrt(a @ w), so
  its minimum over the simplex sits at a vertex s * e_k (Rockafellar 1970,
  Cor. 32.3.2), and the start is that vertex, chosen in closed form in
  O(p); the solve certifies it on its first gradient and takes no step.
  Every other config starts at the simplex centroid.

Stationarity is measured by the projected-gradient residual
||w - project(w - ETA_MAX * grad)|| / ETA_MAX, which vanishes exactly at
constrained stationary points.  The solver stops on one of three
events: kkt_tol once the residual is at most tol_kkt, step_tol once
the projected-gradient fallback search accepts no trial, and max_iters at
the iteration cap.  No test of the step size stops a solve: an accepted
step always lowers the objective, and the certificate alone decides when
a fit is done.

The Frank-Wolfe gap grad @ w - s * min(grad) is zero exactly at
stationary points.  When rho1 = 0 (vsgl, log_model) the objective is convex
and the gap bounds g(w) - min g from above (Jaggi 2013).  When rho1 > 0 the
square-root term is concave, so the gap measures stationarity only and
bounds nothing about optimality (Lacoste-Julien 2016).  Both it and the
residual come from the one gradient evaluated at the returned point.

Every abort raises a RuntimeError: NonsmoothPointError where the
square-root term has no gradient, BarrierDomainError at a start outside the
barrier domain, and a plain RuntimeError for a non-finite gradient.  A
returned SolveReport is therefore always a finished fit (step_tol, kkt_tol
or max_iters) with a finite kkt_residual.  Its certified flag says whether
that residual is at most tol_kkt, and it is the one flag that does: a
step_tol stop (the fallback stalled) always leaves the residual above, a
max_iters stop usually does, and so would a step or a projection gone
wrong.  The certificate, not a test of each step, is what tells a trusted
fit from one that is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import objective as obj

TERMINATIONS = ("step_tol", "kkt_tol", "max_iters")

# The probe step of the stationarity residual; its projection z also ends
# the projected-gradient fallback's step z - w.  Read at call time, never
# bound as a default argument, so patching it changes every use.
ETA_MAX = 1.0

# Fixed constants of the Armijo backtracking: a trial is accepted once its
# value is at most f(w) + ARMIJO_SLOPE times the predicted decrease
# g @ (trial - w) < 0; otherwise the step shrinks by BACKTRACK_RATIO, at
# most NEWTON_BACKTRACKS times along a Newton direction before the
# projected-gradient fallback, and at most MAX_BACKTRACKS times along that
# fallback; a fallback search that accepts none of its trials is the one
# event that stops the solve with step_tol.
ARMIJO_SLOPE = 1e-4
BACKTRACK_RATIO = 0.5
NEWTON_BACKTRACKS = 10
MAX_BACKTRACKS = 60

# Cap on the threshold eps of the epsilon-active set, as a fraction of the
# mean weight s / p; below it, eps is the stationarity residual itself.
ACTIVE_EPS = 0.1

# CG also stops once its residual is at most this fraction of tol_kkt: the
# residual after a full Newton step is about CG's, and the stopping test
# needs no less.
CG_KKT_FRACTION = 0.1


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget and stopping tolerance.

    The stationarity test stops once ||w - project(w - ETA_MAX * grad)|| /
    ETA_MAX <= tol_kkt, which must be finite: an infinite tol_kkt would
    certify any point.  At tol_kkt = 0 a fit runs until its fallback search
    stalls or max_iters is reached.  The probe step, the active-set
    threshold, the Armijo constants and both backtrack budgets are fixed
    module constants.
    """

    max_iters: int = 10_000
    tol_kkt: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not 0 <= self.tol_kkt < math.inf:
            raise ValueError(f"tol_kkt must be finite and nonnegative, got {self.tol_kkt}")


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

    def record(self) -> dict:
        """The fit's fields of solve_report.json and of a bench per-fit record."""
        return {
            "iters": self.iters,
            "backtracks": self.backtracks,
            "termination": self.termination,
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


def _finite(g: np.ndarray) -> np.ndarray:
    """g itself; raises RuntimeError when the gradient g has a non-finite entry."""
    if not np.logical_and.reduce(np.isfinite(g)):
        raise RuntimeError(f"non-finite gradient ({np.count_nonzero(~np.isfinite(g))} entries)")
    return g


def start_point(ctx: obj.ObjectiveContext) -> np.ndarray:
    """The start of ls_pgd_solve for ctx's config.

    With no convex term (rho2 = alpha = quad_weight = 0) it is the exact
    minimizer: all mass s on the pair k minimizing g(s * e_k) / s =
    quad_coeff_k + sqrt(sqrt_coeff_k / s).  The projection of w - t * grad
    returns w there for every t, so the solve stops on kkt_tol at its first
    gradient with residual and gap 0.  Every other config starts at the
    centroid, s / p on each of the p pairs.
    """
    config = ctx.config
    if config.rho2 == config.alpha == config.quad_weight == 0.0:
        w = np.zeros(ctx.n_pairs)
        w[int(np.argmin(ctx.quad_coeff + np.sqrt(ctx.sqrt_coeff / config.s)))] = config.s
        return w
    return np.full(ctx.n_pairs, config.s / ctx.n_pairs)


def _probe(w: np.ndarray, g: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """(project(w - ETA_MAX * g), stationarity residual at probe step ETA_MAX)."""
    z = project_simplex(w - ETA_MAX * g, s)
    step = w - z
    return z, math.sqrt(float(step @ step)) / ETA_MAX


def _gap(w: np.ndarray, g: np.ndarray, s: float) -> float:
    """Frank-Wolfe gap g @ w - s * min(g) at w."""
    return float(g @ w) - s * float(np.minimum.reduce(g))


def _newton_direction(
    ctx: obj.ObjectiveContext, w: np.ndarray, pt: tuple, g: np.ndarray, z: np.ndarray,
    residual: float, cg_tol: float,
) -> np.ndarray | None:
    """Projected Newton-CG direction at w, or None where the model has no
    positive curvature along the reduced gradient.

    The epsilon-active set (Bertsekas 1982) holds the pairs with w_k <= eps
    whose probe projection z_k is zero, eps = min(ACTIVE_EPS * s / p,
    residual) for p pairs.  A pair with w_k <= eps that the direction on
    that face would push below zero joins it, and the direction is solved
    once more on the smaller face.  cg_tol is passed to _face_direction.
    """
    near = np.less_equal(w, min(ACTIVE_EPS * ctx.config.s / w.size, residual))
    active = np.logical_and(near, np.equal(z, 0.0))
    d = _face_direction(ctx, w, pt, g, active, cg_tol)
    if d is None or not np.logical_or.reduce(near):
        return d
    blocked = np.less(w + d, 0.0)
    np.logical_and(blocked, near, out=blocked)
    np.logical_and(blocked, np.logical_not(active), out=blocked)
    if np.logical_or.reduce(blocked):
        active |= blocked
        d = _face_direction(ctx, w, pt, g, active, cg_tol)
    return d


def _face_direction(
    ctx: obj.ObjectiveContext, w: np.ndarray, pt: tuple, g: np.ndarray, active: np.ndarray,
    cg_tol: float,
) -> np.ndarray | None:
    """Newton-CG direction that sends the active weights to zero.

    The step d0 sends each active weight to zero and spreads their mass
    evenly over the free pairs.  Conjugate gradients then minimize the model
    g @ d + d @ H d / 2 over the free pairs' zero-sum steps from d0 (H from
    objective._hessian_vector), starting from the residual -g - H d0 and
    stopping once the reduced residual falls to min(0.5, ||r0||) ||r0||
    (Dembo, Eisenstat & Steihaug 1982) or to cg_tol, or at nonpositive
    curvature (Steihaug 1983).

    d0 is -w times the active mask plus c = mass / free pairs times the free
    mask, with no data-dependent indexing: an inactive entry is (-w_k) * 0
    = +-0.0 plus c, which is exactly c, or +0.0 when c = +0.0.  The mass is
    the pairwise sum of the active weights in pair order, np.compress's
    gather.  When every active weight is exactly zero, d0 is the zero
    vector and H d0 = +0.0 leaves the residual's bits as they are, so that
    product is skipped.  Zero is tested by counting nonzero weights, not by
    their sum: an admitted start entry may be as low as -1e-9 and cancel a
    positive one.
    """
    n_active = np.count_nonzero(active)
    free = None
    if n_active:
        free = np.logical_not(active).astype(float)
        n_free = w.size - n_active

    def reduce(x: np.ndarray) -> np.ndarray:
        # the zero-sum part of x on the free pairs, in place
        if free is None:
            x -= np.add.reduce(x) / w.size
        else:
            x *= free
            x -= free * (np.add.reduce(x) / n_free)
        return x

    # CG's steps e start from d0, so the direction is d0 + e
    r = np.negative(g)
    if n_active:
        moved = np.compress(active, w)
        d0 = np.negative(w)
        d0 *= active
        d0 += free * (float(np.add.reduce(moved)) / n_free)
        if np.count_nonzero(moved):
            r -= obj._hessian_vector(ctx, w, pt, d0)
    r = reduce(r)
    rr = float(r @ r)
    if not rr > 0.0:
        return None
    # ||r|| <= max(min(0.5, ||r0||) ||r0||, cg_tol), compared in squares
    target = max(min(0.25, rr) * rr, cg_tol * cg_tol)
    e = np.zeros_like(w)
    p = r.copy()
    for k in range(w.size - n_active):
        hp = reduce(obj._hessian_vector(ctx, w, pt, p))
        curvature = float(p @ hp)
        if not curvature > 0.0:
            if k == 0:
                return None
            break
        step = rr / curvature
        e += step * p
        r -= step * hp
        rr_next = float(r @ r)
        if rr_next <= target:
            break
        p *= rr_next / rr
        p += r
        rr = rr_next
    # r inherits the round-off of centering g, whose entries are far larger
    # than r's near a solution, as a sum of order eps * |g| * size; centering
    # e once more keeps that out of the step
    e = reduce(e)
    if n_active:
        e += d0
    return e


def _search(
    ctx: obj.ObjectiveContext, w: np.ndarray, pt: tuple, f_cur: float, g: np.ndarray,
    d: np.ndarray, budget: int,
) -> tuple[tuple[np.ndarray, tuple, float] | None, int]:
    """((trial, its record, its trace value), rejected trials) of a monotone
    Armijo search along d, with None in place of the triple when none of the
    budget + 1 trials is accepted.

    Trial w + scale * d, scale = BACKTRACK_RATIO^t, is projected only when
    it leaves the simplex.  It is accepted once its predicted change
    g @ (trial - w) is negative and g(trial) - g(w) is at most bound =
    ARMIJO_SLOPE times that change; a trial that rounds back to w predicts
    no change and is rejected unevaluated.  The test first reads the
    computed values, g(trial) <= f_cur + bound.  A finite trial that fails it is tested again
    on the change in difference form (objective._change), and its trace
    value is then f_cur plus that change: near a solution the decrease falls
    below the round-off of g itself, and the computed values could not
    resolve it.
    """
    # trial - w sums to zero, so a common offset of g drops out of
    # g @ (trial - w); centering g keeps its round-off out too
    centered = g - np.add.reduce(g) / g.size
    scale = 1.0
    for rejected in range(budget + 1):
        trial = np.multiply(scale, d)
        trial += w
        if np.minimum.reduce(trial) < 0.0:
            trial = project_simplex(trial, ctx.config.s)
        predicted = float(centered @ (trial - w))
        if predicted < 0.0:
            bound = ARMIJO_SLOPE * predicted
            trial_pt = obj._point(ctx, trial)
            f_trial = trial_pt[0]
            if f_trial <= f_cur + bound:
                return (trial, trial_pt, f_trial), rejected
            if math.isfinite(f_trial):
                change = obj._change(ctx, w, pt, trial, trial_pt)
                if change <= bound:
                    return (trial, trial_pt, f_cur + change), rejected
        scale *= BACKTRACK_RATIO
    return None, budget + 1


def ls_pgd_solve(
    ctx: obj.ObjectiveContext, w0: np.ndarray, opts: SolverOptions | None = None
) -> SolveReport:
    """Projected Newton-CG with monotone Armijo line searches.

    Per iteration: take the gradient and the probe projection z =
    project(w - ETA_MAX * grad); stop with kkt_tol once the residual ||w -
    z|| / ETA_MAX <= tol_kkt.  Otherwise search along the Newton-CG
    direction (_newton_direction) with NEWTON_BACKTRACKS backtracks.  Where
    the model has no positive curvature (a linear or concave objective) or
    no Newton trial is accepted, search along z - w with MAX_BACKTRACKS
    backtracks instead; when that search accepts no trial either, stop with
    step_tol at w.  These two stops and the max_iters cap are the only
    ones.  Both searches are _search, so every accepted step has g @
    (w_next - w) < 0 and lowers the trace; trial points outside the
    log-barrier domain evaluate to +inf and are rejected like any other
    insufficient decrease.  A kkt_tol or step_tol return reports the
    residual its last test measured, so a step_tol return marks a fit whose
    fallback stalled before it was certified.

    Aborts raise (see the module docstring); callers that score many fits
    record one as a failure of that one fit.
    """
    opts = opts or SolverOptions()
    s = ctx.config.s
    # The one feasibility check of the solve: every later point is a convex
    # combination of feasible points or a projection, so it is evaluated
    # unchecked.  Each point's one record serves its value and, once
    # accepted, its gradient and Hessian-vector products.
    w = obj._check_feasible(ctx, w0).copy()
    pt = obj._point(ctx, w)
    f_cur = pt[0]
    if not math.isfinite(f_cur):
        raise obj.BarrierDomainError("infeasible start: objective not finite at w0")
    trace = [f_cur]
    termination = "max_iters"
    iters = 0
    backtracks = 0
    for iters in range(1, opts.max_iters + 1):
        g = _finite(obj._gradient(ctx, w, pt))
        z, residual = _probe(w, g, s)
        if residual <= opts.tol_kkt:
            termination = "kkt_tol"
            break
        d = _newton_direction(ctx, w, pt, g, z, residual, CG_KKT_FRACTION * opts.tol_kkt)
        accepted = None
        if d is not None:
            accepted, rejected = _search(ctx, w, pt, f_cur, g, d, NEWTON_BACKTRACKS)
            backtracks += rejected
        if accepted is None:
            accepted, rejected = _search(ctx, w, pt, f_cur, g, z - w, MAX_BACKTRACKS)
            backtracks += rejected
            if accepted is None:
                # the fallback stopped moving before the fit was certified
                termination = "step_tol"
                break
        w, pt, f_cur = accepted
        trace.append(f_cur)
    if termination == "max_iters":
        g = _finite(obj._gradient(ctx, w, pt))
        _, residual = _probe(w, g, s)
    return SolveReport(
        w, trace, iters, residual, termination, backtracks, _gap(w, g, s),
        residual <= opts.tol_kkt,
    )
