"""Maximum-likelihood subsolvers shared by the sequential engines.

Gaussian growth models are fitted by least squares, on the ``ModelSpec``:
its name, M2's known change point and, for M3's change-point box, its
design interval.  The amplitude a1 enters every growth mean linearly, so a
cold fit (no previous estimate) projects it out (variable projection): the
profiled RSS over the rate and, for M3, the change point is scanned on a
grid in one numpy pass, a simplex polishes the best nodes, and
Levenberg-Marquardt finishes.  Sequential refits take projected
Levenberg-Marquardt steps from the incumbent estimate on the analytic
Jacobian: every mean is C^1 in its parameters, the change point included,
because the two branches meet in value and slope at x0.

The factorial logistic cases are fitted exactly under their admissibility
constraints: a safeguarded Newton iteration on the concave scalar
likelihood for the equal-coefficient case, and for the zero-beta2 case the
closed-form pooled logits, falling back to 1-D Newton solves on the edges
of the admissible box when those logits are not admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .designs import MANDAL_C0
from .errors import InsufficientData
from .growth import growth_grad
from .logistic import sigmoid_scalar

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
_TINY = np.finfo(float).tiny

#: the equal-beta MLE lives strictly inside the admissible interval
C1_EDGE = MANDAL_C0 - 1e-6

#: log-magnitude box of the matched-sign logistic fit, |log|beta_k|| <= C2_UBOUND
C2_UBOUND = 10.0
_C2_BOX = (math.exp(-C2_UBOUND), math.exp(C2_UBOUND))


@dataclass
class FitResult:
    """A fit's estimate, objective (RSS or negative log-likelihood) and
    iteration count.  ``normal`` is J^T J of the residual Jacobian at
    ``theta`` for the growth least-squares fits, which ``nls_refit`` already
    holds when it stops; divided by sigma2 it is the cumulative information.
    The logistic fits leave it None."""

    theta: np.ndarray
    objective: float
    converged: bool
    iterations: int
    boundary: bool = False
    normal: np.ndarray | None = None


# ---------------------------------------------------------------------------
# generic local optimizers
# ---------------------------------------------------------------------------

def _project(x, bounds):
    if bounds is None:
        return np.asarray(x, dtype=float)
    return np.minimum(np.maximum(x, bounds[0]), bounds[1])


def nelder_mead(f, x0, bounds=None, xtol: float = 1e-8,
                max_iter: int | None = None, init_step: float = 0.05) -> FitResult:
    """Reflect/expand/contract/shrink simplex descent with box projection.

    Terminates when the simplex diameter drops below xtol * (1 + |best|)
    or after max_iter (default 500 * d) iterations.
    """
    x0 = _project(np.asarray(x0, dtype=float), bounds)
    d = x0.size
    if max_iter is None:
        max_iter = 500 * d

    sim = np.empty((d + 1, d))
    sim[0] = x0
    for k in range(d):
        step = init_step * max(abs(x0[k]), 1.0)
        vertex = x0.copy()
        vertex[k] += step
        vertex = _project(vertex, bounds)
        if vertex[k] == x0[k]:  # clipped onto a bound face; step inward
            vertex[k] = x0[k] - step
            vertex = _project(vertex, bounds)
        sim[k + 1] = vertex
    fsim = np.array([f(v) for v in sim])

    rho, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    inv_d = 1.0 / d
    it = 0
    while it < max_iter:
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        diameter = abs(sim[1:] - sim[0]).max()
        if diameter < xtol * (1.0 + abs(sim[0]).max()):
            break
        it += 1

        centroid = sim[:-1].sum(axis=0) * inv_d
        xr = _project(centroid + rho * (centroid - sim[-1]), bounds)
        fr = f(xr)
        if fr < fsim[0]:
            xe = _project(centroid + rho * chi * (centroid - sim[-1]), bounds)
            fe = f(xe)
            sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            if fr < fsim[-1]:
                xc = _project(centroid + psi * rho * (centroid - sim[-1]), bounds)
            else:
                xc = _project(centroid - psi * (centroid - sim[-1]), bounds)
            fc = f(xc)
            if fc < min(fr, fsim[-1]):
                sim[-1], fsim[-1] = xc, fc
            else:
                for j in range(1, d + 1):
                    sim[j] = _project(sim[0] + sigma * (sim[j] - sim[0]), bounds)
                    fsim[j] = f(sim[j])

    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    return FitResult(theta=sim[0], objective=float(fsim[0]),
                     converged=it < max_iter, iterations=it)


def local_minimize(f, x0, bounds=None, n_starts: int = 3, perturb: float = 0.05,
                   xtol: float = 1e-8, max_iter: int | None = None,
                   init_step: float = 0.05) -> FitResult:
    """Multi-start simplex descent; the first start is x0 itself, so the
    returned objective never exceeds a restart from the incumbent.

    Extra starts use deterministic +/- `perturb` relative perturbations
    (alternating sign patterns), keeping fits free of any random stream.
    """
    x0 = np.asarray(x0, dtype=float)
    scale = np.maximum(np.abs(x0), 1.0)
    best = None
    total_iter = 0
    for s in range(n_starts):
        if s == 0:
            start = x0
        else:
            signs = np.array([(-1.0) ** (k + s) for k in range(x0.size)])
            start = x0 + perturb * scale * signs
        res = nelder_mead(f, start, bounds=bounds, xtol=xtol, max_iter=max_iter,
                          init_step=init_step)
        total_iter += res.iterations
        if best is None or res.objective < best.objective:
            best = res
    best.iterations = total_iter
    return best


# ---------------------------------------------------------------------------
# nonlinear least squares for the growth models
# ---------------------------------------------------------------------------

def _nls_bounds(model: ModelSpec):
    lo = [ALPHA_BOUNDS[0], ALPHA_BOUNDS[0]]
    hi = [ALPHA_BOUNDS[1], ALPHA_BOUNDS[1]]
    if model.name == "M3":
        lo.append(model.x_min + 1.0)
        hi.append(model.x_max - 1.0)
    return np.asarray(lo), np.asarray(hi)


def _nls_data(model: ModelSpec, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < model.dim + 1:
        raise InsufficientData(f"need at least {model.dim + 1} observations, got {x.size}")
    if not x.min() < x.max():
        raise InsufficientData("all design points identical")
    return x, y


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
    inv_xs = 1.0 / xs
    yy = float(ys @ ys)
    # tails[:, k] = sums over xs[k:] of 1, x, x^2, y and x*y
    moments = np.stack([np.ones_like(xs), xs, xs * xs, ys, xs * ys])
    tails = np.hstack([np.cumsum(moments[:, ::-1], axis=1)[:, ::-1], np.zeros((5, 1))])
    tail_rows = tails.T.tolist()  # python floats for the scalar path

    def project(a2, x0, tail, head_fy, head_ff):
        n_lin, s_x, s_xx, s_y, s_xy = tail
        e0, c, d = np.exp(-a2 / x0), 1.0 - a2 / x0, a2 / x0**2
        fy = head_fy + e0 * (c * s_y + d * s_xy)
        ff = head_ff + e0 * e0 * (c * c * n_lin + 2.0 * c * d * s_x + d * d * s_xx)
        a1 = np.minimum(np.maximum(fy / np.maximum(ff, _TINY), ALPHA_BOUNDS[0]),
                        ALPHA_BOUNDS[1])
        return a1, yy - 2.0 * a1 * fy + a1 * a1 * ff

    def grid(a2s: np.ndarray, x0s: np.ndarray):
        k = np.searchsorted(xs, x0s, side="left")  # ties go to the linear branch
        expo = np.exp(-a2s[:, None] * inv_xs)
        head = np.zeros((2, a2s.size, xs.size + 1))
        np.cumsum(expo * ys, axis=1, out=head[0, :, 1:])
        np.cumsum(expo * expo, axis=1, out=head[1, :, 1:])
        return project(a2s[:, None], x0s, tails[:, k], head[0][:, k], head[1][:, k])

    def at(a2: float, x0: float):
        k = int(np.searchsorted(xs, x0, side="left"))
        expo = np.exp(-a2 * inv_xs[:k])
        return project(a2, x0, tail_rows[k], float(expo @ ys[:k]), float(expo @ expo))
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
    Iterations count the simplex and LM iterations together.
    """
    x, y = _nls_data(model, x, y)
    lo, hi = _nls_bounds(model)
    grid, at = _amplitude_profile(x, y)
    m3 = model.name == "M3"
    x0s = np.linspace(lo[2], hi[2], VP_X0_NODES) if m3 else \
        np.array([model.x0_known if model.name == "M2" else np.inf])
    log_a2s = np.linspace(math.log(lo[1]), math.log(hi[1]), VP_RATE_NODES)

    rss = grid(np.exp(log_a2s), x0s)[1]
    best_a2 = rss.argmin(axis=0)
    along = rss[best_a2, np.arange(x0s.size)]   # best RSS at each change point
    # local minima along x0; a plateau counts once, at its left end
    minima = np.flatnonzero(np.r_[True, along[1:] < along[:-1]]
                            & np.r_[along[:-1] <= along[1:], True])
    minima = minima[np.argsort(along[minima], kind="stable")[:VP_BASINS]]

    def profile(u):  # u = (log a2[, x0])
        return at(math.exp(u[0]), u[1] if m3 else x0s[0])

    u_bounds = (np.append(math.log(lo[1]), lo[2:]), np.append(math.log(hi[1]), hi[2:]))
    polished = [nelder_mead(lambda u: float(profile(u)[1]),
                            np.r_[log_a2s[best_a2[j]], x0s[j:j + 1] if m3 else []],
                            bounds=u_bounds, xtol=VP_XTOL) for j in minima]
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
    parameter box and kept only when they lower the RSS, so the result is
    never worse than `init`.  Stops once a proposed step moves every
    coordinate by at most LM_XTOL * (1 + |theta|).  The normal matrix
    J^T J is formed once per accepted point, so the result carries it at
    the returned theta (``FitResult.normal``) at no extra cost.
    """
    x, y = _nls_data(model, x, y)
    lo, hi = _nls_bounds(model)

    def residuals_and_jacobian(theta):
        # every growth mean is a1 times its a1-derivative, so one gradient
        # evaluation yields both the Jacobian and the residuals
        jac = growth_grad(model, theta, x)
        r = y - theta[0] * jac[:, 0]
        return r, float(r @ r), jac

    theta = np.minimum(np.maximum(np.asarray(init, dtype=float), lo), hi)
    r, rss, jac = residuals_and_jacobian(theta)
    jtj, jtr = jac.T @ jac, jac.T @ r
    lam = LM_LAMBDA0
    converged = False
    it = 0
    while it < LM_MAX_ITER:
        it += 1
        # Marquardt scaling; the floor keeps a flat direction (an M3 change
        # point above every data point) from making the system singular
        diag = jtj.diagonal()
        damped = jtj.copy()
        damped.flat[::theta.size + 1] += lam * np.maximum(diag, 1e-12 * diag.max())
        step = np.linalg.solve(damped, jtr)
        cand = np.minimum(np.maximum(theta + step, lo), hi)
        if (np.abs(cand - theta) <= LM_XTOL * (1.0 + np.abs(theta))).all():
            converged = True
            break
        r_cand, rss_cand, jac_cand = residuals_and_jacobian(cand)
        if rss_cand < rss:
            theta, r, rss, jac = cand, r_cand, rss_cand, jac_cand
            jtj, jtr = jac.T @ jac, jac.T @ r
            lam = max(lam / 10.0, LM_LAMBDA_MIN)
        else:  # more damping shortens the step until it descends
            lam *= 10.0
    return FitResult(theta=theta, objective=rss, converged=converged, iterations=it,
                     normal=jtj)


# ---------------------------------------------------------------------------
# constrained logistic maximum likelihood
# ---------------------------------------------------------------------------

def _neg_loglik_cells(counts, succ, etas) -> float:
    # scalar loop over the cells: numpy round-trips would dominate at this
    # size.  log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)) stays
    # finite for any finite eta.
    total = 0.0
    for n, s, eta in zip(counts, succ, etas):
        eta = float(eta)
        total += n * (max(eta, 0.0) + math.log1p(math.exp(-abs(eta)))) - s * eta
    return total


def _logistic_line_min(counts, succ, slopes, offsets, lo: float, hi: float,
                       start: float = 0.0) -> tuple[float, int]:
    """Exact minimizer of the logistic negative log-likelihood on a segment.

    The cells' linear predictors are eta_c = slopes[c] * t + offsets[c], so
    the objective is convex in the scalar t.  Newton steps from `start` run
    inside a bracket that shrinks around the sign change of the derivative;
    a step that would leave the bracket bisects it instead, after checking
    whether the end it heads for is itself the constrained optimum.  A
    Newton step below NEWTON_RTOL ends the search: with quadratic
    convergence the next correction would be below rounding.  Returns
    (t, derivative evaluations).
    """
    def derivs(t: float) -> tuple[float, float]:
        g = h = 0.0
        for n, s, a, c in zip(counts, succ, slopes, offsets):
            p = sigmoid_scalar(a * t + c)
            g += a * (n * p - s)
            h += a * a * n * p * (1.0 - p)
        return g, h

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


#: per-cell multipliers of the common coefficient, 1 + x1 + x2
_C1_MULT = (3.0, 1.0, 1.0, -1.0)


def logistic_mle_c1(*, counts, successes) -> FitResult:
    """MLE under beta0 = beta1 = beta2 = b with |b| < 0.8314.

    The log-likelihood is concave in the scalar b, so a safeguarded Newton
    iteration on the admissible interval finds the exact maximizer; it
    always starts from b = 0, so the estimate is a function of the table
    alone.  When the maximizer pins to an edge (e.g. complete separation)
    the result carries boundary=True.
    """
    counts, successes = [float(v) for v in counts], [float(v) for v in successes]
    b, it = _logistic_line_min(counts, successes, _C1_MULT, (0.0,) * 4,
                               -C1_EDGE, C1_EDGE)
    obj = _neg_loglik_cells(counts, successes, [b * m for m in _C1_MULT])
    return FitResult(theta=np.array([b] * 3), objective=obj, converged=True,
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
        t1, it1 = _logistic_line_min(n_pm, s_pm, (1.0, -1.0), (fixed, fixed), lo, hi,
                                     start=1.0)
        # b1 = fixed: eta+ = b0 + fixed, eta- = b0 - fixed
        t0, it0 = _logistic_line_min(n_pm, s_pm, (1.0, 1.0), (fixed, -fixed), lo, hi,
                                     start=1.0)
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
    Estimates on the box edge carry boundary=True.
    """
    counts, successes = [float(v) for v in counts], [float(v) for v in successes]
    n_pm = (counts[0] + counts[1], counts[2] + counts[3])
    s_pm = (successes[0] + successes[1], successes[2] + successes[3])
    lo, hi = _C2_BOX

    theta, it = None, 0
    if all(0.0 < s < n for n, s in zip(n_pm, s_pm)):
        eta_p, eta_m = (math.log(s / (n - s)) for n, s in zip(n_pm, s_pm))
        b0, b1 = 0.5 * (eta_p + eta_m), 0.5 * (eta_p - eta_m)
        if b0 * b1 > 0.0 and lo <= abs(b0) <= hi and lo <= abs(b1) <= hi:
            theta = (b0, b1)
    if theta is None:
        # the negative quadrant is the positive one with successes and
        # failures swapped (eta -> -eta); scoring each on its own data makes
        # mirror-symmetric tables tie exactly
        f_pm = tuple(n - s for n, s in zip(n_pm, s_pm))
        b0, b1, obj_pos, it_pos = _c2_positive_box_edges(n_pm, s_pm)
        m0, m1, obj_neg, it_neg = _c2_positive_box_edges(n_pm, f_pm)
        it = it_pos + it_neg
        theta = (b0, b1) if obj_pos <= obj_neg else (-m0, -m1)

    b0, b1 = theta
    obj = _neg_loglik_cells(counts, successes, (b0 + b1, b0 + b1, b0 - b1, b0 - b1))
    boundary = any(abs(math.log(abs(b))) >= C2_UBOUND - 1e-6 for b in theta)
    return FitResult(theta=np.array([b0, b1, 0.0]), objective=obj, converged=True,
                     iterations=it, boundary=boundary)
