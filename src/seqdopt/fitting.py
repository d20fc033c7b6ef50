"""Maximum-likelihood subsolvers shared by the sequential engines.

Gaussian growth models are fitted by least squares, on the ``ModelSpec``:
its dimension (three when the change point is free, M3), its known change
point (``growth.fixed_change_point``) and, for a free change point's box,
its design interval.  The amplitude a1 enters every growth mean linearly,
so a cold fit (no previous estimate) projects it out (variable projection):
the profiled RSS over the rate and, for M3, the change point is scanned on a
grid in one numpy pass, a simplex polishes the best nodes, and
Levenberg-Marquardt finishes.  Sequential refits take projected
Levenberg-Marquardt steps from the incumbent estimate on the analytic
Jacobian: every mean is C^1 in its parameters, the change point included,
because the two branches meet in value and slope at x0.  Only the Jacobian
and the normal equations are numpy work; the 2x2 or 3x3 damped system is
solved by cofactors on Python floats (``linalg.solve_sym``).

Work on 1 to 3 numbers runs on Python floats, where numpy's per-call
overhead would dominate, with numpy's elementwise double arithmetic in its
order.  ``nelder_mead`` (the cold fit's polish and cm's interval search)
keeps its simplex, f-values, centroid and box in lists, and hands its
objective each vertex as its list of floats.  The profile's scalar path
finds the branch split by bisection and projects the amplitude on floats,
but takes exp(-a2/x0) from numpy: ``math.exp`` differs from it in the last
bit on some inputs.

The factorial logistic cases are fitted exactly under their admissibility
constraints: a safeguarded Newton iteration on the concave scalar
likelihood for the equal-coefficient case, and for the zero-beta2 case the
closed-form pooled logits, falling back to 1-D Newton solves on the edges
of the admissible box when those logits are not admissible.  The searches'
derivatives are sums over the cells on Python floats, each sigmoid in
``logistic.sigmoid_scalar``'s arithmetic; the equal-coefficient cells share
two exps (``_c1_derivs``), with the same doubles as the per-cell loop.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import TYPE_CHECKING

import numpy as np

from .designs import MANDAL_C0
from .errors import InsufficientData
from .growth import fixed_change_point, growth_grad
from .linalg import solve_sym

if TYPE_CHECKING:
    from .modelspec import ModelSpec

#: box for the growth-curve amplitude and rate parameters
ALPHA_BOUNDS = (1e-3, 1e3)

#: relative Newton step that ends the exact logistic line searches, and
#: their evaluation budget (bisection alone needs ~60 on the widest segment)
NEWTON_RTOL = 1e-9
_LINE_MAX_EVALS = 200

#: Levenberg-Marquardt step tolerance, iteration budget and damping range
#: for the sequential growth refits
LM_XTOL = 1e-8
LM_MAX_ITER = 100
LM_LAMBDA0 = 1e-3
LM_LAMBDA_MIN = 1e-12

#: grid of the variable-projection cold fits: log-spaced rate nodes over
#: ALPHA_BOUNDS, change-point nodes over the M3 fit box, the number of local
#: minima along the change point that the simplex polishes, and its tolerance
VP_RATE_NODES = 120
VP_X0_NODES = 80
VP_BASINS = 5
VP_XTOL = 1e-6
#: the simplex's iteration budget per coordinate, and its first step in each
#: coordinate as a fraction of max(|x0_k|, 1)
NM_ITER_PER_DIM = 500
NM_INIT_STEP = 0.05
_TINY = float(np.finfo(float).tiny)

#: the equal-beta MLE lives strictly inside the admissible interval
C1_EDGE = MANDAL_C0 - 1e-6

#: log-magnitude box of the matched-sign logistic fit, |log|beta_k|| <= C2_UBOUND
C2_UBOUND = 10.0
_C2_BOX = (math.exp(-C2_UBOUND), math.exp(C2_UBOUND))


@dataclass
class FitResult:
    """A fit's estimate, objective (the minimized value) and iteration count.
    ``normal`` is J^T J of the residual Jacobian at ``theta`` for the growth
    least-squares fits, which ``nls_refit`` already holds when it stops;
    divided by sigma2 it is the cumulative information.  The exact logistic
    fits leave both None: no run reads their likelihood."""

    theta: np.ndarray
    objective: float | None
    converged: bool
    iterations: int
    boundary: bool = False
    normal: np.ndarray | None = None


# ---------------------------------------------------------------------------
# generic local optimizers
# ---------------------------------------------------------------------------

def _clip(t, lo, hi):
    """np.minimum(np.maximum(t, lo), hi), elementwise on an array and bit for
    bit on a float: NaN stays NaN, and a tie (only a signed zero can tell)
    returns the bound, as numpy's do."""
    if isinstance(t, np.ndarray):
        return np.minimum(np.maximum(t, lo), hi)
    t = lo if lo >= t else t
    return hi if hi <= t else t


def nelder_mead(f, x0, bounds, xtol: float = 1e-8) -> FitResult:
    """Reflect/expand/contract/shrink simplex descent with box projection.

    Terminates when the simplex diameter drops below xtol * (1 + |best|)
    or after NM_ITER_PER_DIM * d iterations; the first simplex steps each
    coordinate by NM_INIT_STEP * max(|x0_k|, 1).  `x0` and `bounds` =
    (lo, hi) hold one real number per coordinate, infinities allowed in the
    bounds.  The simplex, its f-values, the centroid and the box are lists
    of Python floats, and vertices are ranked by a stable sort with NaN
    last.  f receives each vertex as its list of Python floats, which it
    must not modify, and returns a float.
    """
    box = [(float(lo), float(hi)) for lo, hi in zip(*bounds, strict=True)]
    d = len(box)
    max_iter = NM_ITER_PER_DIM * d

    def rank(sim, fsim):
        # in place, by insertion: stable with NaN last, and cheap on a simplex
        # that is sorted but for its replaced vertices
        for i in range(1, d + 1):
            for j in range(i, 0, -1):
                a, b = fsim[j], fsim[j - 1]
                if not (a < b or (b != b and a == a)):
                    break
                fsim[j - 1], fsim[j] = a, b
                sim[j - 1], sim[j] = sim[j], sim[j - 1]

    x0 = [_clip(float(t), lo, hi) for t, (lo, hi) in zip(x0, box, strict=True)]
    sim = [x0]
    for k in range(d):
        step = NM_INIT_STEP * max(abs(x0[k]), 1.0)
        vertex = x0.copy()
        vertex[k] = _clip(x0[k] + step, *box[k])
        if vertex[k] == x0[k]:  # clipped onto a bound face; step inward
            vertex[k] = _clip(x0[k] - step, *box[k])
        sim.append(vertex)
    fsim = [f(v) for v in sim]

    rho, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    inv_d = 1.0 / d
    it = 0
    while it < max_iter:
        rank(sim, fsim)
        best, worst = sim[0], sim[-1]
        # every coordinate's gap to the best vertex under the tolerance: the
        # diameter test, also when a NaN would make the diameter NaN
        tol = xtol * (1.0 + max(map(abs, best)))
        if all(abs(t - b) < tol for v in sim[1:] for t, b in zip(v, best)):
            break
        it += 1

        # numpy's column sums: from +0.0, vertex by vertex
        centroid = [reduce(add, col, 0.0) * inv_d for col in zip(*sim[:-1])]
        away = [c - w for c, w in zip(centroid, worst)]

        def toward(coef):  # centroid + coef * (centroid - worst), projected
            return [_clip(c + coef * a, lo, hi) for c, a, (lo, hi) in zip(centroid, away, box)]

        xr = toward(rho)
        fr = f(xr)
        if fr < fsim[0]:
            xe = toward(rho * chi)
            fe = f(xe)
            sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            # c - psi * (c - w) is c + (-psi) * (c - w) exactly in IEEE arithmetic
            xc = toward(psi * rho if fr < fsim[-1] else -psi)
            fc = f(xc)
            if fc < min(fr, fsim[-1]):
                sim[-1], fsim[-1] = xc, fc
            else:
                for j in range(1, d + 1):
                    sim[j] = [_clip(b + sigma * (t - b), lo, hi)
                              for b, t, (lo, hi) in zip(best, sim[j], box)]
                    fsim[j] = f(sim[j])

    rank(sim, fsim)
    return FitResult(theta=np.array(sim[0]), objective=fsim[0],
                     converged=it < max_iter, iterations=it)


def local_minimize(f, x0, bounds) -> FitResult:
    """Simplex descent (``nelder_mead`` at its defaults) from x0 and from x0
    moved by +/- 5% of max(|x0_k|, 1) in two alternating sign patterns, which
    keeps fits free of any random stream.  The first start is x0 itself, so
    the returned objective never exceeds a restart from the incumbent;
    iterations count all three descents.
    """
    best = None
    total_iter = 0
    for s in range(3):
        start = x0 if s == 0 else [t + 0.05 * max(abs(t), 1.0) * (-1.0) ** (k + s)
                                   for k, t in enumerate(x0)]
        res = nelder_mead(f, start, bounds)
        total_iter += res.iterations
        if best is None or res.objective < best.objective:
            best = res
    best.iterations = total_iter
    return best


# ---------------------------------------------------------------------------
# nonlinear least squares for the growth models
# ---------------------------------------------------------------------------

def _nls_bounds(model: ModelSpec) -> list[tuple[float, float]]:
    # (lo, hi) per coordinate: a1 and a2 in ALPHA_BOUNDS, a free change
    # point 1 inside the interval
    box = [ALPHA_BOUNDS, ALPHA_BOUNDS, (model.x_min + 1.0, model.x_max - 1.0)]
    return box[:model.dim]


def _amplitude_profile(x: np.ndarray, y: np.ndarray):
    """Least squares over the amplitude a1, at any (a2, x0).

    Every growth mean is a1 * f(x; a2, x0): f = exp(-a2/x) below the change
    point and e0 * (c + d*x) from it on, with e0 = exp(-a2/x0),
    c = 1 - a2/x0 and d = a2/x0^2 (M1 is x0 = inf).  So the best a1 is
    <f, y> / <f, f>, clipped to ALPHA_BOUNDS; with the data sorted by x,
    both inner products are a sum over the exponential branch plus fixed
    tail moments of the linear one.  Returns (grid, at): grid(a2s, x0s)
    gives (a1, rss) arrays of shape (a2s.size, x0s.size) in one pass, and
    at(a2, x0) the scalars.
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    xs_list = xs.tolist()   # for bisect on the scalar path
    inv_xs = 1.0 / xs
    yy = float(ys @ ys)
    # tails[:, k] = sums over xs[k:] of 1, x, x^2, y and x*y
    moments = np.stack([np.ones_like(xs), xs, xs * xs, ys, xs * ys])
    tails = np.hstack([np.cumsum(moments[:, ::-1], axis=1)[:, ::-1], np.zeros((5, 1))])
    tail_rows = tails.T.tolist()  # python floats for the scalar path

    def project(a2, x0, e0, tail, head_fy, head_ff):
        # elementwise on the grid's arrays, on Python floats for `at`
        n_lin, s_x, s_xx, s_y, s_xy = tail
        c, d = 1.0 - a2 / x0, a2 / x0**2
        fy = head_fy + e0 * (c * s_y + d * s_xy)
        ff = head_ff + e0 * e0 * (c * c * n_lin + 2.0 * c * d * s_x + d * d * s_xx)
        a1 = _clip(fy / _clip(ff, _TINY, math.inf), *ALPHA_BOUNDS)
        return a1, yy - 2.0 * a1 * fy + a1 * a1 * ff

    def grid(a2s: np.ndarray, x0s: np.ndarray):
        k = np.searchsorted(xs, x0s, side="left")  # ties go to the linear branch
        expo = np.exp(-a2s[:, None] * inv_xs)
        head = np.zeros((2, a2s.size, xs.size + 1))
        np.cumsum(expo * ys, axis=1, out=head[0, :, 1:])
        np.cumsum(expo * expo, axis=1, out=head[1, :, 1:])
        return project(a2s[:, None], x0s, np.exp(-a2s[:, None] / x0s),
                       tails[:, k], head[0][:, k], head[1][:, k])

    def at(a2: float, x0: float):
        x0 = float(x0)
        k = bisect.bisect_left(xs_list, x0)
        expo = np.exp(-a2 * inv_xs[:k])
        # numpy's exp, not math.exp: the two differ in the last bit on some
        # inputs, and the grid path uses numpy's
        return project(a2, x0, float(np.exp(-a2 / x0)), tail_rows[k],
                       float(expo @ ys[:k]), float(expo @ expo))
    return grid, at


def nls_fit(model: ModelSpec, x, y) -> FitResult:
    """Cold least-squares fit of a growth model (no previous estimate).

    Variable projection (Golub & Pereyra 1973): the amplitude a1 is solved
    for exactly at each (a2, x0), so the search runs over the rate a2 (on a
    log scale) and, for M3, the change point.  The profiled RSS is
    evaluated on a grid of VP_RATE_NODES rates (times VP_X0_NODES change
    points over the fit box for M3); a simplex then polishes the best node,
    for M3 the best node of each of the VP_BASINS best local minima along
    the change point.  nls_refit (Levenberg-Marquardt) finishes from the
    best polished point.  The simplex comes first because M3's mean is not
    C^2 in x0 at the data points, over which LM from a grid node crawls.
    Iterations count the simplex and LM iterations together.  Raises
    InsufficientData on fewer than dim + 1 points or a single distinct one.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < model.dim + 1:
        raise InsufficientData(f"need at least {model.dim + 1} observations, got {x.size}")
    if not x.min() < x.max():
        raise InsufficientData("all design points identical")
    # the search's box: log a2, and a free change point's own box
    u_box = [tuple(map(math.log, ALPHA_BOUNDS)), *_nls_bounds(model)[2:]]
    grid, at = _amplitude_profile(x, y)
    free_x0 = model.dim == 3
    x0s = np.linspace(*u_box[1], VP_X0_NODES) if free_x0 else \
        np.array([fixed_change_point(model)])
    log_a2s = np.linspace(*u_box[0], VP_RATE_NODES)

    rss = grid(np.exp(log_a2s), x0s)[1]
    best_a2 = rss.argmin(axis=0)
    along = rss[best_a2, np.arange(x0s.size)]   # best RSS at each change point
    # local minima along x0; a plateau counts once, at its left end
    minima = np.flatnonzero(np.r_[True, along[1:] < along[:-1]]
                            & np.r_[along[:-1] <= along[1:], True])
    minima = minima[np.argsort(along[minima], kind="stable")[:VP_BASINS]]

    def profile(u):  # u = (log a2[, x0])
        return at(math.exp(u[0]), u[1] if free_x0 else x0s[0])

    u_bounds = tuple(zip(*u_box))
    starts = [[log_a2, x0][:model.dim - 1]
              for log_a2, x0 in zip(log_a2s[best_a2[minima]].tolist(), x0s[minima].tolist())]
    polished = [nelder_mead(lambda u: profile(u)[1], start, u_bounds, xtol=VP_XTOL)
                for start in starts]
    best = min(polished, key=lambda res: res.objective)
    theta = np.r_[profile(best.theta)[0], math.exp(best.theta[0]), best.theta[1:]]
    fit = nls_refit(model, x, y, theta)
    fit.iterations += sum(res.iterations for res in polished)
    return fit


def nls_refit(model: ModelSpec, x, y, init) -> FitResult:
    """Projected Levenberg-Marquardt least squares from a warm start.

    The growth means are C^1 in theta, the change point included (the
    branches meet in value and slope at x0), so damped Gauss-Newton steps on
    the analytic growth_grad Jacobian apply.  Steps are projected onto the
    parameter box and kept only when they lower the exact RSS, so the
    result is never worse than `init`.  Stops once a proposed step moves
    every coordinate by at most LM_XTOL * (1 + |theta|), or unconverged at
    the incumbent when the damped system is singular or not finite (an
    all-zero Jacobian among them), so no step exists.  The Jacobian and the
    normal equations J^T J, J^T r are numpy work over the data; the d x d
    rest of an iteration (damping, the cofactor solve ``linalg.solve_sym``,
    projection and the step test) runs on Python floats, where numpy's
    per-call overhead would dominate.  J^T J is formed once per accepted
    point, so the result carries it at the returned theta
    (``FitResult.normal``) at no extra cost.  It checks nothing: a refit
    only adds points to data that ``nls_fit`` has checked.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    box = _nls_bounds(model)

    def residuals_and_jacobian(theta):
        # every growth mean is a1 times its a1-derivative, so one gradient
        # evaluation yields both the Jacobian and the residuals
        jac = growth_grad(model, theta, x)
        r = y - theta[0] * jac[:, 0]
        return r, float(r @ r), jac

    def normal_equations(r, jac):
        # J^T J, kept as the result's normal matrix, and J^T J and J^T r
        # as Python floats for the d x d work
        jtj = jac.T @ jac
        return jtj, jtj.tolist(), (jac.T @ r).tolist()

    init = np.asarray(init, dtype=float).tolist()
    theta = [min(max(t, lo), hi) for t, (lo, hi) in zip(init, box)]
    r, rss, jac = residuals_and_jacobian(theta)
    jtj, a, b = normal_equations(r, jac)
    lam = LM_LAMBDA0
    converged = False
    it = 0
    while it < LM_MAX_ITER:
        it += 1
        # Marquardt scaling; the floor keeps a flat direction (an M3 change
        # point above every data point) from making the system singular
        floor = 1e-12 * max(row[k] for k, row in enumerate(a))
        damped = [row[:k] + [row[k] + lam * max(row[k], floor)] + row[k + 1:]
                  for k, row in enumerate(a)]
        step = solve_sym(damped, b)
        if step is None:
            break
        cand = [min(max(t + s, lo), hi) for t, s, (lo, hi) in zip(theta, step, box)]
        if all(abs(c - t) <= LM_XTOL * (1.0 + abs(t)) for c, t in zip(cand, theta)):
            converged = True
            break
        r_cand, rss_cand, jac_cand = residuals_and_jacobian(cand)
        if rss_cand < rss:
            theta, rss = cand, rss_cand
            jtj, a, b = normal_equations(r_cand, jac_cand)
            lam = max(lam / 10.0, LM_LAMBDA_MIN)
        else:  # more damping shortens the step until it descends
            lam *= 10.0
    return FitResult(theta=np.array(theta), objective=rss, converged=converged,
                     iterations=it, normal=jtj)


# ---------------------------------------------------------------------------
# constrained logistic maximum likelihood
# ---------------------------------------------------------------------------

def _neg_loglik_cells(counts, succ, etas) -> float:
    # scalar loop over the cells: numpy round-trips would dominate at this
    # size.  log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)) stays
    # finite for any finite eta.
    total = 0.0
    for n, s, eta in zip(counts, succ, etas):
        total += n * (max(eta, 0.0) + math.log1p(math.exp(-abs(eta)))) - s * eta
    return total


def _cell_derivs(counts, succ, slopes, offsets):
    """The first and second derivatives in t of the logistic negative
    log-likelihood of cells whose linear predictors are
    eta_c = slopes[c] * t + offsets[c], as a function of t."""
    # per cell: slope, offset, trials, successes and the curvature factor
    # a * a * n, whose product the Hessian term starts with
    cells = [(a, c, n, s, a * a * n) for n, s, a, c in zip(counts, succ, slopes, offsets)]
    exp = math.exp

    def derivs(t: float) -> tuple[float, float]:
        g = h = 0.0
        for a, c, n, s, aan in cells:
            eta = a * t + c
            if eta >= 0.0:   # logistic.sigmoid_scalar, inline
                p = 1.0 / (1.0 + exp(-eta))
            else:
                ex = exp(eta)
                p = ex / (1.0 + ex)
            g += a * (n * p - s)
            h += aan * p * (1.0 - p)
        return g, h
    return derivs


def _c1_derivs(counts, succ):
    """``_cell_derivs`` of the equal-coefficient cells, whose slopes are the
    multipliers 1 + x1 + x2 = (3, 1, 1, -1) of b and whose offsets are 0:
    the same doubles from two exps.  |eta| is 3|b| at (+1, +1) and |b| at
    the other three cells, and eta = -b at (-1, -1) takes the branch that
    eta = b does not, but at b = 0.  The sums keep the cell order; they
    differ only in the sign of a zero gradient, where the search stops
    either way."""
    (n0, n1, n2, n3), (s0, s1, s2, s3) = counts, succ
    h0 = 3.0 * 3.0 * n0
    exp = math.exp

    def derivs(b: float) -> tuple[float, float]:
        u = 3.0 * b
        e = exp(-abs(u))
        p0 = 1.0 / (1.0 + e) if u >= 0.0 else e / (1.0 + e)
        e = exp(-abs(b))
        up, down = 1.0 / (1.0 + e), e / (1.0 + e)
        p1 = up if b >= 0.0 else down      # cells (+1, -1) and (-1, +1)
        p3 = up if b <= 0.0 else down      # cell (-1, -1)
        g = 3.0 * (n0 * p0 - s0) + (n1 * p1 - s1) + (n2 * p1 - s2) - (n3 * p3 - s3)
        h = (h0 * p0 * (1.0 - p0) + n1 * p1 * (1.0 - p1) + n2 * p1 * (1.0 - p1)
             + n3 * p3 * (1.0 - p3))
        return g, h
    return derivs


def _logistic_line_min(derivs, lo: float, hi: float, start: float) -> tuple[float, int]:
    """Exact minimizer of a convex logistic negative log-likelihood on a
    segment, from ``derivs(t)``, its first and second derivatives in t.

    Newton steps from `start` run inside a bracket that shrinks around the
    sign change of the derivative; a step that would leave the bracket
    bisects it instead, after checking whether the end it heads for is
    itself the constrained optimum.  A Newton step below NEWTON_RTOL ends
    the search: with quadratic convergence the next correction would be
    below rounding.  Returns (t, derivative evaluations).
    """
    a, b = lo, hi
    checked = set()
    t = min(max(start, lo), hi)
    evals = 0
    while evals < _LINE_MAX_EVALS:
        g, h = derivs(t)
        evals += 1
        if g == 0.0:
            return t, evals
        if g > 0.0:
            b = t
        else:
            a = t
        nxt = t - g / h if h > 0.0 else math.nan
        if abs(nxt - t) <= NEWTON_RTOL * (1.0 + abs(t)):
            return min(max(nxt, a), b), evals
        if not a < nxt < b:
            end = a if g > 0.0 else b
            if end in (lo, hi) and end not in checked:
                checked.add(end)
                if end == t:
                    g_end = g
                else:
                    g_end = derivs(end)[0]
                    evals += 1
                if g_end == 0.0 or (g_end > 0.0) == (g > 0.0):
                    return end, evals  # one-signed derivative: optimum at the end
            nxt = 0.5 * (a + b)
            if b - a <= 1e-15 * (1.0 + abs(nxt)):
                return nxt, evals
        t = nxt
    return t, evals


def logistic_mle_c1(*, counts, successes) -> FitResult:
    """MLE under beta0 = beta1 = beta2 = b with |b| < 0.8314.

    The log-likelihood is concave in the scalar b, so a safeguarded Newton
    iteration on the admissible interval finds the exact maximizer; it
    always starts from b = 0, so the estimate is a function of the table
    alone.  When the maximizer pins to an edge (e.g. complete separation)
    the result carries boundary=True; the objective is None.
    """
    b, it = _logistic_line_min(_c1_derivs(counts, successes), -C1_EDGE, C1_EDGE, start=0.0)
    return FitResult(theta=np.array([b] * 3), objective=None, converged=True,
                     iterations=it, boundary=abs(b) == C1_EDGE)


def _c2_positive_box_edges(n_pm, s_pm) -> tuple[float, float, float, int]:
    """Best (b0, b1) on the edges of the box [exp(-U), exp(U)]^2.

    `n_pm`, `s_pm` are the pooled trials and successes of the x1 = +1 and
    x1 = -1 rows.  Each edge fixes one coefficient, leaving a concave 1-D
    likelihood in the other; the best edge optimum wins (first on ties).
    Returns (b0, b1, objective, iterations).
    """
    lo, hi = _C2_BOX
    best, best_obj, total_it = None, math.inf, 0
    for fixed in (lo, hi):
        # b0 = fixed: eta+ = fixed + b1, eta- = fixed - b1
        t1, it1 = _logistic_line_min(_cell_derivs(n_pm, s_pm, (1.0, -1.0), (fixed, fixed)),
                                     lo, hi, start=1.0)
        # b1 = fixed: eta+ = b0 + fixed, eta- = b0 - fixed
        t0, it0 = _logistic_line_min(_cell_derivs(n_pm, s_pm, (1.0, 1.0), (fixed, -fixed)),
                                     lo, hi, start=1.0)
        total_it += it0 + it1
        for b0, b1 in ((fixed, t1), (t0, fixed)):
            obj = _neg_loglik_cells(n_pm, s_pm, (b0 + b1, b0 - b1))
            if obj < best_obj:
                best, best_obj = (b0, b1), obj
    return best[0], best[1], best_obj, total_it


def logistic_mle_c2(*, counts, successes) -> FitResult:
    """Exact MLE under beta2 = 0 and beta0 * beta1 > 0.

    With beta2 = 0 the likelihood depends on the data only through the
    pooled x1 = +1 and x1 = -1 rows, whose linear predictors are
    eta+ = b0 + b1 and eta- = b0 - b1.  The unconstrained maximizer is the
    pair of pooled logits, b0, b1 = (eta+ +/- eta-) / 2, which satisfies the
    constraint iff |eta+| > |eta-|.  Magnitudes are kept in the box
    |log|beta_k|| <= C2_UBOUND; when the pooled logits fall outside it (a
    constraint-violating table, or a pooled rate of 0 or 1) the maximum of
    each sign quadrant lies on an edge of its box, each edge being a
    concave 1-D problem, and the better quadrant wins (positive on ties).
    Estimates on the box edge carry boundary=True; the objective is None.
    """
    n_p, n_m = counts[0] + counts[1], counts[2] + counts[3]
    s_p, s_m = successes[0] + successes[1], successes[2] + successes[3]
    lo, hi = _C2_BOX

    theta, it = None, 0
    if 0.0 < s_p < n_p and 0.0 < s_m < n_m:
        eta_p, eta_m = math.log(s_p / (n_p - s_p)), math.log(s_m / (n_m - s_m))
        b0, b1 = 0.5 * (eta_p + eta_m), 0.5 * (eta_p - eta_m)
        if b0 * b1 > 0.0 and lo <= abs(b0) <= hi and lo <= abs(b1) <= hi:
            theta = (b0, b1)
    if theta is None:
        # the negative quadrant is the positive one with successes and
        # failures swapped (eta -> -eta); scoring each on its own data makes
        # mirror-symmetric tables tie exactly
        n_pm = (n_p, n_m)
        b0, b1, obj_pos, it_pos = _c2_positive_box_edges(n_pm, (s_p, s_m))
        m0, m1, obj_neg, it_neg = _c2_positive_box_edges(n_pm, (n_p - s_p, n_m - s_m))
        it = it_pos + it_neg
        theta = (b0, b1) if obj_pos <= obj_neg else (-m0, -m1)

    b0, b1 = theta
    edge = C2_UBOUND - 1e-6
    boundary = abs(math.log(abs(b0))) >= edge or abs(math.log(abs(b1))) >= edge
    return FitResult(theta=np.array([b0, b1, 0.0]), objective=None, converged=True,
                     iterations=it, boundary=boundary)
