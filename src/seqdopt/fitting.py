"""Maximum-likelihood subsolvers shared by the sequential engines.

Gaussian growth models are fitted by least squares.  A cold fit (no
previous estimate) runs a derivative-free multi-start simplex search, with
a change-point profile stage for M3.  Sequential refits start from the
incumbent estimate and take projected Levenberg-Marquardt steps on the
analytic Jacobian: every mean is C^1 in its parameters, the change point
included, because the two branches meet in value and slope at x0.

The factorial logistic cases are fitted exactly under their admissibility
constraints: a safeguarded Newton iteration on the concave scalar
likelihood for the equal-coefficient case, and for the zero-beta2 case the
closed-form pooled logits, falling back to 1-D Newton solves on the edges
of the admissible box when those logits are not admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import MANDAL_C0
from .errors import InsufficientData
from .growth import ExperimentInterval, NlrKind, growth_grad
from .logistic import cell_index, sigmoid_scalar

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

#: the equal-beta MLE lives strictly inside the admissible interval
C1_EDGE = MANDAL_C0 - 1e-6

#: log-magnitude box of the matched-sign logistic fit, |log|beta_k|| <= C2_UBOUND
C2_UBOUND = 10.0
_C2_BOX = (math.exp(-C2_UBOUND), math.exp(C2_UBOUND))


@dataclass
class FitResult:
    theta: np.ndarray
    objective: float
    converged: bool
    iterations: int
    boundary: bool = False


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


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo: float, hi: float, xtol: float = 1e-8,
                       max_iter: int = 200) -> tuple[float, float, int]:
    """Golden-section minimization on [lo, hi]; returns (x, f(x), iterations)."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while b - a > xtol * (1.0 + abs(a) + abs(b)) and it < max_iter:
        it += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = c if fc < fd else d
    return float(x), float(min(fc, fd)), it


# ---------------------------------------------------------------------------
# nonlinear least squares for the growth models
# ---------------------------------------------------------------------------

def _rss_fn(kind: NlrKind, x: np.ndarray, y: np.ndarray):
    """Residual-sum-of-squares closure, specialized per model.

    The data are sorted by x once so the change-point branch split is a
    single searchsorted per evaluation; this sits in the innermost loop of
    every sequential refit.  Values agree with growth_mean exactly.
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    inv_x = 1.0 / xs

    if kind.tag == "M1":
        def rss(theta):
            r = ys - theta[0] * np.exp(-theta[1] * inv_x)
            return float(r @ r)
        return rss

    def branched_rss(a1, a2, x0, k):
        r_lo = ys[:k] - a1 * np.exp(-a2 * inv_x[:k])
        r_hi = ys[k:] - a1 * np.exp(-a2 / x0) * (1.0 - a2 / x0 + a2 * xs[k:] / x0**2)
        return float(r_lo @ r_lo + r_hi @ r_hi)

    if kind.tag == "M2":
        x0 = float(kind.x0_known)
        k_fixed = int(np.searchsorted(xs, x0, side="left"))

        def rss(theta):
            return branched_rss(theta[0], theta[1], x0, k_fixed)
        return rss

    def rss(theta):  # M3: the change point moves with theta
        k = int(np.searchsorted(xs, theta[2], side="left"))
        return branched_rss(theta[0], theta[1], theta[2], k)
    return rss


def _cold_init_exp(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Log-linear regression of y on 1/x as a starting point for (a1, a2)."""
    usable = y > max(1e-6, 0.02 * float(np.max(y, initial=0.0)))
    if usable.sum() >= 2 and np.ptp(x[usable]) > 0.0:
        coef = np.polyfit(1.0 / x[usable], np.log(y[usable]), 1)
        a2 = float(np.clip(-coef[0], *ALPHA_BOUNDS))
        a1 = float(np.clip(np.exp(coef[1]), *ALPHA_BOUNDS))
        return np.array([a1, a2])
    return np.array([1.0, 1.0])


def _nls_bounds(kind: NlrKind, interval: ExperimentInterval):
    lo = [ALPHA_BOUNDS[0], ALPHA_BOUNDS[0]]
    hi = [ALPHA_BOUNDS[1], ALPHA_BOUNDS[1]]
    if kind.tag == "M3":
        lo.append(interval.x_min + 1.0)
        hi.append(interval.x_max - 1.0)
    return np.asarray(lo), np.asarray(hi)


def _profile_fit_m3(x, y, interval: ExperimentInterval, grid_size: int = 40):
    """Profile the change point on a grid, fitting (a1, a2) at each node,
    then refine the best node by golden section on the profile objective."""
    x0_lo, x0_hi = interval.x_min + 1.0, interval.x_max - 1.0
    grid = np.linspace(x0_lo, x0_hi, grid_size)
    inner_bounds = (np.array([ALPHA_BOUNDS[0]] * 2), np.array([ALPHA_BOUNDS[1]] * 2))

    chain = _cold_init_exp(x, y)

    # the grid pass only ranks candidate change points, so the inner fits
    # run on a small budget; the final polish restores full precision
    def inner(x0: float, init: np.ndarray) -> FitResult:
        rss = _rss_fn(NlrKind("M2", x0_known=float(x0)), x, y)
        return local_minimize(rss, init, bounds=inner_bounds, n_starts=1,
                              xtol=1e-4, max_iter=80)

    best_k, best_fit = 0, None
    for k, x0 in enumerate(grid):
        res = inner(x0, chain)
        chain = res.theta  # warm-chain along the profile
        if best_fit is None or res.objective < best_fit.objective:
            best_k, best_fit = k, res

    lo = grid[max(best_k - 1, 0)]
    hi = grid[min(best_k + 1, grid_size - 1)]
    warm = best_fit.theta

    def profile(x0: float) -> float:
        return inner(x0, warm).objective

    x0_star, _, _ = golden_section_min(profile, lo, hi, xtol=1e-3)
    final_inner = inner(x0_star, warm)
    return np.append(final_inner.theta, x0_star)


def _nls_data(kind: NlrKind, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < kind.dim + 1:
        raise InsufficientData(f"need at least {kind.dim + 1} observations, got {x.size}")
    if np.unique(x).size < 2:
        raise InsufficientData("all design points identical")
    return x, y


def nls_fit(kind: NlrKind, x, y, interval: ExperimentInterval | None = None) -> FitResult:
    """Cold least-squares fit of a growth model (no previous estimate).

    M1/M2 start from a log-linear regression and M3 runs the change-point
    profile search; a multi-start simplex then polishes the start.
    """
    x, y = _nls_data(kind, x, y)
    interval = interval or ExperimentInterval()
    bounds = _nls_bounds(kind, interval)
    rss = _rss_fn(kind, x, y)
    if kind.tag == "M3":
        init = _profile_fit_m3(x, y, interval)
    else:
        init = _cold_init_exp(x, y)
    init = np.clip(np.asarray(init, dtype=float), bounds[0], bounds[1])
    return local_minimize(rss, init, bounds=bounds)


def nls_refit(kind: NlrKind, x, y, init,
              interval: ExperimentInterval | None = None) -> FitResult:
    """Projected Levenberg-Marquardt least squares from a warm start.

    The growth means are C^1 in theta, the change point included (the
    branches meet in value and slope at x0), so damped Gauss-Newton steps on
    the analytic growth_grad Jacobian apply.  Steps are projected onto the
    parameter box and kept only when they lower the RSS, so the result is
    never worse than `init`.  Stops once a proposed step moves every
    coordinate by at most LM_XTOL * (1 + |theta|).
    """
    x, y = _nls_data(kind, x, y)
    lo, hi = _nls_bounds(kind, interval or ExperimentInterval())

    def residuals_and_jacobian(theta):
        # every growth mean is a1 times its a1-derivative, so one gradient
        # evaluation yields both the Jacobian and the residuals
        jac = growth_grad(kind, theta, x)
        r = y - theta[0] * jac[:, 0]
        return r, float(r @ r), jac

    theta = np.clip(np.asarray(init, dtype=float), lo, hi)
    r, rss, jac = residuals_and_jacobian(theta)
    lam = LM_LAMBDA0
    converged = False
    it = 0
    while it < LM_MAX_ITER:
        it += 1
        jtj = jac.T @ jac
        # Marquardt scaling; the floor keeps a flat direction (an M3 change
        # point above every data point) from making the system singular
        scale = np.maximum(np.diag(jtj), 1e-12 * np.max(np.diag(jtj)))
        step = np.linalg.solve(jtj + lam * np.diag(scale), jac.T @ r)
        cand = np.clip(theta + step, lo, hi)
        if np.all(np.abs(cand - theta) <= LM_XTOL * (1.0 + np.abs(theta))):
            converged = True
            break
        r_cand, rss_cand, jac_cand = residuals_and_jacobian(cand)
        if rss_cand < rss:
            theta, r, rss, jac = cand, r_cand, rss_cand, jac_cand
            lam = max(lam / 10.0, LM_LAMBDA_MIN)
        else:  # more damping shortens the step until it descends
            lam *= 10.0
    return FitResult(theta=theta, objective=rss, converged=converged, iterations=it)


# ---------------------------------------------------------------------------
# constrained logistic maximum likelihood
# ---------------------------------------------------------------------------

def cells_from_pairs(data) -> tuple[np.ndarray, np.ndarray]:
    """Collapse (level point, y) pairs to per-cell trial and success counts."""
    counts = np.zeros(4)
    succ = np.zeros(4)
    for point, y in data:
        c = cell_index(point)
        counts[c] += 1.0
        succ[c] += float(y)
    return counts, succ


def _neg_loglik_cells(counts, succ, etas) -> float:
    # scalar loop over the cells: numpy round-trips would dominate at this
    # size.  log(1 + exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)) stays
    # finite for any finite eta.
    total = 0.0
    for n, s, eta in zip(counts, succ, etas):
        eta = float(eta)
        total += n * (max(eta, 0.0) + math.log1p(math.exp(-abs(eta)))) - s * eta
    return total


def _cell_lists(data, counts, successes) -> tuple[list, list]:
    if counts is None:
        counts, successes = cells_from_pairs(data)
    return [float(v) for v in counts], [float(v) for v in successes]


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


def logistic_mle_c1(data=None, *, counts=None, successes=None) -> FitResult:
    """MLE under beta0 = beta1 = beta2 = b with |b| < 0.8314.

    The log-likelihood is concave in the scalar b, so a safeguarded Newton
    iteration on the admissible interval finds the exact maximizer; it
    always starts from b = 0, so the estimate is a function of the table
    alone.  When the maximizer pins to an edge (e.g. complete separation)
    the result carries boundary=True.
    """
    counts, successes = _cell_lists(data, counts, successes)
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


def logistic_mle_c2(data=None, *, counts=None, successes=None) -> FitResult:
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
    counts, successes = _cell_lists(data, counts, successes)
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
