"""Output checks of a simulation study, computed apart from the program.

The reference quantities here (growth gradients, logistic cell weights,
information determinants, D-optimal designs, least-squares and likelihood
optima) come from this module's own numpy and scipy code, or from
properties the methods must have.  Every check returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import numpy as np

# scipy is imported by the checks that use it, after the measured rounds,
# so that it stays out of the study process's peak memory

#: coded 2x2 levels in the program's fixed row order, and rows (1, x1, x2)
LEVELS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
X_CELLS = np.array([[1.0, a, b] for a, b in LEVELS])
_LEVEL_INDEX = {p: i for i, p in enumerate(LEVELS)}

#: fit bounds the growth estimates must respect: a1, a2 in [1e-3, 1e3] and,
#: for M3, a change point at least one unit inside the interval
ALPHA_BOUNDS = (1e-3, 1e3)
X0_MARGIN = 1.0
#: admissible region of the logistic fits: |b| < 0.8314 for GLM_C1, and
#: magnitudes in [exp(-10), exp(10)] for GLM_C2
C1_LIMIT = 0.8314
C2_LOG_BOX = 10.0

#: relative tolerance of det_cum_info against the own determinant; the
#: program uses cofactor formulas, this module np.linalg.det
DET_RTOL = 1e-9
#: absolute tolerance of the mean efficiency curve against the own one
EFF_ATOL = 1e-7
#: the program's final objective may exceed the best scipy optimum by this
#: relative amount (both stop on step tolerances near 1e-8 in theta)
OBJ_RTOL = 1e-7
#: largest gap between pooled pics allocations and the D-optimal weights
ALLOC_TOL = 0.05
#: significance of each normality test; small, because a false alarm
#: fails the whole run
NORMALITY_ALPHA = 1e-5


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def growth_mean(model: str, theta, x):
    """a1 exp(-a2/x), continued linearly (value and slope) above x0 for M3."""
    a1, a2 = theta[0], theta[1]
    expo = a1 * np.exp(-a2 / x)
    if model == "M1":
        return expo
    if model != "M3":
        raise ValueError(f"no reference formulas for {model}")
    x0 = theta[2]
    lin = a1 * np.exp(-a2 / x0) * (1.0 - a2 / x0 + a2 * x / x0**2)
    return np.where(x >= x0, lin, expo)


def growth_grad(model: str, theta, x) -> np.ndarray:
    """d mean / d theta, shape x.shape + (dim,)."""
    x = np.asarray(x, dtype=float)
    a1, a2 = theta[0], theta[1]
    e = np.exp(-a2 / x)
    cols = [e, -a1 * e / x]
    if model == "M1":
        return np.stack(cols, axis=-1)
    if model != "M3":
        raise ValueError(f"no reference formulas for {model}")
    x0 = theta[2]
    e0 = np.exp(-a2 / x0)
    phi = 1.0 - a2 / x0 + a2 * x / x0**2
    lin = x >= x0
    cols[0] = np.where(lin, e0 * phi, cols[0])
    cols[1] = np.where(lin, a1 * e0 * (-phi / x0 - 1.0 / x0 + x / x0**2), cols[1])
    d_x0 = a1 * e0 * (a2 * phi / x0**2 + a2 / x0**2 - 2.0 * a2 * x / x0**3)
    cols.append(np.where(lin, d_x0, 0.0))
    return np.stack(cols, axis=-1)


def cell_weights(beta) -> np.ndarray:
    """Bernoulli variances p(1 - p) of the four cells."""
    e = np.exp(-np.abs(X_CELLS @ np.asarray(beta, dtype=float)))
    return e / (1.0 + e) ** 2


def cell_counts(points) -> np.ndarray:
    counts = np.zeros(4)
    for p in points:
        counts[_LEVEL_INDEX[(int(p[0]), int(p[1]))]] += 1.0
    return counts


def is_glm(model: str) -> bool:
    return model.startswith("GLM")


def cumulative_info(model: str, theta, xs, sigma2) -> np.ndarray:
    """Total information of the design points xs at theta."""
    if is_glm(model):
        return X_CELLS.T @ ((cell_counts(xs) * cell_weights(theta))[:, None] * X_CELLS)
    g = growth_grad(model, theta, np.asarray(xs, dtype=float))
    return g.T @ g / sigma2


def glm_d_optimal(beta) -> np.ndarray:
    """D-optimal cell proportions at beta by the multiplicative algorithm.

    Iterates p_c <- p_c d_c / 3 until the equivalence theorem's bound
    max_c d_c <= 3 holds to 1e-12, which certifies the optimum.
    """
    f = X_CELLS * np.sqrt(cell_weights(beta))[:, None]
    p = np.full(4, 0.25)
    for _ in range(200_000):
        d = np.einsum("ci,ij,cj->c", f, np.linalg.inv(f.T @ (p[:, None] * f)), f)
        if d.max() <= 3.0 * (1.0 + 1e-12):
            return p
        p = p * d / 3.0
    raise RuntimeError("multiplicative algorithm did not converge")


def growth_d_optimal(model: str, theta, x_min: float, x_max: float) -> np.ndarray:
    """Support of the D-optimal design on [x_min, x_max], equal weights.

    Searches saturated designs (dim points; a D-optimal design on dim points
    has equal weights): the best subset of a 70-point grid, polished by
    Nelder-Mead on log|det G|.  The result is certified by the equivalence
    theorem, max_x g(x)' M^-1 g(x) <= dim on a 20,001-point grid.
    """
    from scipy import optimize

    dim = 2 if model == "M1" else 3

    def logdet(points):
        pts = np.clip(points, x_min, x_max)
        return np.log(abs(np.linalg.det(growth_grad(model, theta, pts))) + 1e-300)

    grid = np.linspace(x_min, x_max, 70)
    subsets = np.array(list(itertools.combinations(grid, dim)))
    dets = np.abs(np.linalg.det(growth_grad(model, theta, subsets)))
    start = subsets[int(np.argmax(dets))]
    res = optimize.minimize(lambda p: -logdet(p), start, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20_000})
    support = np.sort(np.clip(res.x, x_min, x_max))

    g = growth_grad(model, theta, support)
    m_inv = np.linalg.inv(g.T @ g / dim)
    dense = np.concatenate([np.linspace(x_min, x_max, 20_001), support])
    gd = growth_grad(model, theta, dense)
    worst = np.einsum("ki,ij,kj->k", gd, m_inv, gd).max()
    if worst > dim * (1.0 + 1e-6):
        raise RuntimeError(f"{model} design not certified: max d(x) = {worst}")
    return support


def d_optimal_det(model: str, theta, cfg) -> float:
    """det of the information per trial at the D-optimal design."""
    if is_glm(model):
        p = glm_d_optimal(theta)
        f = X_CELLS * np.sqrt(cell_weights(theta))[:, None]
        return float(np.linalg.det(f.T @ (p[:, None] * f)))
    support = growth_d_optimal(model, theta, cfg.x_min, cfg.x_max)
    g = growth_grad(model, theta, support)
    return float(np.linalg.det(g.T @ g / (len(support) * cfg.sigma2)))


def _glm_table(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell trials and successes."""
    trials, successes = np.zeros(4), np.zeros(4)
    for p, y in zip(xs, ys):
        c = _LEVEL_INDEX[(int(p[0]), int(p[1]))]
        trials[c] += 1.0
        successes[c] += float(y)
    return trials, successes


def _glm_nll(theta, trials, successes) -> float:
    eta = X_CELLS @ np.asarray(theta, dtype=float)
    return float(np.sum(trials * np.logaddexp(0.0, eta) - successes * eta))


def objective(model: str, theta, xs, ys) -> float:
    """Residual sum of squares, or the logistic negative log-likelihood."""
    theta = np.asarray(theta, dtype=float)
    if is_glm(model):
        return _glm_nll(theta, *_glm_table(xs, ys))
    r = np.asarray(ys) - growth_mean(model, theta, np.asarray(xs, dtype=float))
    return float(r @ r)


def scipy_optimum(model: str, xs, ys, cfg) -> float:
    """Best objective scipy finds over the admissible region, from fixed starts."""
    from scipy import optimize

    ys = np.asarray(ys, dtype=float)
    if is_glm(model):
        table = _glm_table(xs, ys)
    if model == "GLM_C1":
        res = optimize.minimize_scalar(
            lambda b: _glm_nll((b, b, b), *table),
            bounds=(-C1_LIMIT, C1_LIMIT), method="bounded", options={"xatol": 1e-12})
        return float(res.fun)
    if model == "GLM_C2":
        lo, hi = np.exp(-C2_LOG_BOX), np.exp(C2_LOG_BOX)
        best = np.inf
        for sign in (1.0, -1.0):
            for start in ((1.0, 1.0), (0.1, 0.1), (3.0, 0.3)):
                res = optimize.minimize(
                    lambda u: _glm_nll((sign * u[0], sign * u[1], 0.0), *table),
                    start, method="L-BFGS-B", bounds=[(lo, hi)] * 2,
                    options={"ftol": 1e-15, "gtol": 1e-10})
                best = min(best, float(res.fun))
        return best
    x = np.asarray(xs, dtype=float)
    star = np.asarray(cfg.true_params, dtype=float)
    lo = [ALPHA_BOUNDS[0]] * 2
    hi = [ALPHA_BOUNDS[1]] * 2
    starts = [star]
    if model == "M3":
        lo.append(cfg.x_min + X0_MARGIN)
        hi.append(cfg.x_max - X0_MARGIN)
        starts += [np.array([star[0], star[1], x0])
                   for x0 in np.linspace(cfg.x_min, cfg.x_max, 7)[1:-1]]
    best = np.inf
    for start in starts:
        res = optimize.least_squares(
            lambda t: ys - growth_mean(model, t, x), start,
            jac=lambda t: -growth_grad(model, t, x), bounds=(lo, hi),
            xtol=1e-14, ftol=1e-14, gtol=1e-14)
        best = min(best, objective(model, res.x, x, ys))
    return best


# ---------------------------------------------------------------------------
# trajectory access
# ---------------------------------------------------------------------------

def columns(traj):
    """(xs, ys, thetas, dets): thetas and dets are NaN where unrecorded."""
    recs = traj.records
    dim = len(recs[-1].theta_hat)
    thetas = np.array([np.full(dim, np.nan) if r.theta_hat is None
                       else np.asarray(r.theta_hat, dtype=float) for r in recs])
    dets = np.array([np.nan if r.det_cum_info is None else float(r.det_cum_info)
                     for r in recs])
    return [r.x for r in recs], np.array([float(r.y) for r in recs]), thetas, dets


def same_trajectory(a, b) -> bool:
    xa, ya, ta, da = columns(a)
    xb, yb, tb, db = columns(b)
    return (np.array_equal(np.asarray(xa, dtype=float), np.asarray(xb, dtype=float))
            and np.array_equal(ya, yb) and np.array_equal(ta, tb, equal_nan=True)
            and np.array_equal(da, db, equal_nan=True))


def digest(trajectories) -> str:
    """Hash of every recorded point, response, estimate and determinant."""
    h = hashlib.sha256()
    for traj in trajectories:
        xs, ys, thetas, dets = columns(traj)
        for arr in (np.asarray(xs, dtype=float), ys, thetas, dets):
            h.update(arr.tobytes())
    return h.hexdigest()


def sampled_steps(n1: int, n: int) -> list[int]:
    """Steps at which the information and efficiency are recomputed."""
    return sorted({n1, n1 + 1, n} | {int(s) for s in np.linspace(n1, n, 7).round()})


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_shape(cfg, summary) -> list[str]:
    """Every replication that did not fail has n records, in step order."""
    out = []
    if len(summary.trajectories) != cfg.replications - len(summary.failures):
        out.append("trajectory count does not match the replications")
    for r, traj in enumerate(summary.trajectories):
        steps = [rec.step for rec in traj.records]
        if steps != list(range(1, cfg.n + 1)):
            out.append(f"rep {r}: {len(steps)} records, not steps 1..{cfg.n}")
    return out


def check_points(cfg, summary) -> list[str]:
    """Every point lies in the interval, or among the four level points."""
    out = []
    for r, traj in enumerate(summary.trajectories):
        xs = [rec.x for rec in traj.records]
        if is_glm(cfg.model):
            bad = [x for x in xs if tuple(int(v) for v in x) not in _LEVEL_INDEX
                   or any(float(v) != int(v) for v in x)]
        else:
            bad = [x for x in xs if not cfg.x_min <= float(x) <= cfg.x_max]
        if bad:
            out.append(f"rep {r}: point {bad[0]!r} outside the design space")
    return out


def check_admissible(cfg, summary) -> list[str]:
    """Every recorded estimate is finite and inside the admissible region."""
    out = []
    for r, traj in enumerate(summary.trajectories):
        _, _, thetas, _ = columns(traj)
        t = thetas[cfg.n1 - 1:]
        if not np.all(np.isfinite(t)):
            out.append(f"rep {r}: missing or non-finite estimate after step {cfg.n1 - 1}")
            continue
        if cfg.model == "GLM_C1":
            ok = np.all(t[:, 0] == t[:, 1]) and np.all(t[:, 0] == t[:, 2]) \
                and np.all(np.abs(t[:, 0]) < C1_LIMIT)
        elif cfg.model == "GLM_C2":
            ok = np.all(t[:, 2] == 0.0) and np.all(t[:, 0] * t[:, 1] > 0.0)
        else:
            ok = np.all((t[:, :2] >= ALPHA_BOUNDS[0]) & (t[:, :2] <= ALPHA_BOUNDS[1]))
            if cfg.model == "M3":
                ok = ok and np.all((t[:, 2] >= cfg.x_min + X0_MARGIN)
                                   & (t[:, 2] <= cfg.x_max - X0_MARGIN))
        if not ok:
            out.append(f"rep {r}: inadmissible estimate")
    return out


def check_information(cfg, summary) -> list[str]:
    """det_cum_info at sampled steps equals the own information determinant."""
    out = []
    for r, traj in enumerate(summary.trajectories):
        xs, _, thetas, dets = columns(traj)
        for i in sampled_steps(cfg.n1, cfg.n):
            own = np.linalg.det(cumulative_info(cfg.model, thetas[i - 1], xs[:i],
                                                cfg.sigma2))
            if not abs(dets[i - 1] - own) <= DET_RTOL * abs(own):
                out.append(f"rep {r} step {i}: det_cum_info {dets[i - 1]!r} != {own!r}")
                break
    return out


def check_efficiency(cfg, summary) -> list[str]:
    """The mean efficiency curve equals the own formula at sampled steps."""
    det_star = d_optimal_det(cfg.model, cfg.true_params, cfg)
    out = []
    cols = [columns(t) for t in summary.trajectories]
    for i in sampled_steps(cfg.n1, cfg.n):
        vals = [1.0 - abs(np.linalg.det(cumulative_info(cfg.model, th[i - 1], xs[:i],
                                                        cfg.sigma2) / i) - det_star)
                / det_star for xs, _, th, _ in cols]
        mine, theirs = float(np.mean(vals)), summary.mean_curve.at(i)
        if not abs(mine - theirs) <= EFF_ATOL:
            out.append(f"step {i}: mean efficiency {theirs!r}, own formula {mine!r}")
    return out


def check_optimum(cfg, summary) -> list[str]:
    """Final estimates are no worse in objective than a scipy fit."""
    out = []
    for r, traj in enumerate(summary.trajectories):
        xs, ys, thetas, _ = columns(traj)
        mine = objective(cfg.model, thetas[-1], xs, ys)
        ref = scipy_optimum(cfg.model, xs, ys, cfg)
        if mine > ref + OBJ_RTOL * abs(ref):
            out.append(f"rep {r}: final objective {mine!r} > scipy optimum {ref!r}")
    return out


def check_allocation(cfg, summary) -> list[str]:
    """Pooled stage-2 allocations approach the D-optimal weights at theta*."""
    pooled = cell_counts([rec.x for t in summary.trajectories for rec in t.records[cfg.n1:]])
    pooled /= pooled.sum()
    out = []
    if not np.allclose(pooled, summary.allocation, rtol=0.0, atol=1e-12):
        out.append(f"summary allocation {summary.allocation} != pooled {pooled}")
    target = glm_d_optimal(cfg.true_params)
    gap = float(np.max(np.abs(pooled - target)))
    if gap > ALLOC_TOL:
        out.append(f"allocation {np.round(pooled, 4)} is {gap:.4f} from {np.round(target, 4)}")
    return out


def check_normality(cfg, summary) -> list[str]:
    """Standardised final estimates have mean near 0 and covariance near I.

    z_r = L_r' (theta_r - theta*) with L_r the Cholesky factor of the final
    information at theta_r.  Tests at level NORMALITY_ALPHA each: n |mean|^2
    against chi2(d), each variance against chi2(n - 1) / (n - 1), each
    covariance against a normal bound of scale 1 / sqrt(n - 1).
    """
    from scipy import stats

    star = np.asarray(cfg.true_params, dtype=float)
    zs = []
    for traj in summary.trajectories:
        xs, _, thetas, _ = columns(traj)
        lower = np.linalg.cholesky(cumulative_info(cfg.model, thetas[-1], xs, cfg.sigma2))
        zs.append(lower.T @ (thetas[-1] - star))
    zs = np.array(zs)
    n, d = zs.shape
    mean, cov = zs.mean(axis=0), np.cov(zs, rowvar=False)
    a = NORMALITY_ALPHA
    out = []
    if n * mean @ mean > stats.chi2.ppf(1.0 - a, d):
        out.append(f"mean of z {np.round(mean, 3)} too far from 0 (n={n})")
    lo, hi = (stats.chi2.ppf(q, n - 1) / (n - 1) for q in (a / 2, 1.0 - a / 2))
    if not np.all((np.diag(cov) >= lo) & (np.diag(cov) <= hi)):
        out.append(f"variances of z {np.round(np.diag(cov), 3)} outside [{lo:.3f}, {hi:.3f}]")
    off = cov[np.triu_indices(d, 1)]
    if np.any(np.abs(off) > stats.norm.ppf(1.0 - a / 2) / np.sqrt(n - 1)):
        out.append(f"covariances of z {np.round(off, 3)} too far from 0")
    return out


def check_artifacts(cfg, summary, out_dir: str) -> list[str]:
    """The artifact tree holds every replication and the final efficiency."""
    out = []
    with open(os.path.join(out_dir, "trajectories.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != len(summary.trajectories) * cfg.n:
        out.append(f"trajectories.csv has {rows} rows")
    with open(os.path.join(out_dir, "summary.json")) as fh:
        doc = json.load(fh)
    if doc["replications_succeeded"] != len(summary.trajectories):
        out.append("summary.json miscounts the replications")
    if doc["final_mean_efficiency"] != float(summary.mean_curve.values[-1]):
        out.append("summary.json final efficiency differs from the summary")
    return out


def check_same(reference, other, what: str) -> list[str]:
    """Two lists of trajectories are identical, record by record."""
    if len(reference) != len(other):
        return [f"{what}: {len(other)} trajectories, expected {len(reference)}"]
    return [f"{what}: replication {r} differs" for r, (a, b)
            in enumerate(zip(reference, other)) if not same_trajectory(a, b)]


def applicable_checks(cfg, out_dir: str | None = None) -> dict:
    """The checks that apply to one cell, by name: check(cfg, summary)."""
    todo = {
        "shape": check_shape,
        "points": check_points,
        "admissible": check_admissible,
        "information": check_information,
        "efficiency": check_efficiency,
        "optimum": check_optimum,
    }
    if is_glm(cfg.model) and cfg.method == "pics":
        todo["allocation"] = check_allocation
    if cfg.model == "M1" and cfg.method == "pics":
        todo["normality"] = check_normality
    if out_dir is not None:
        todo["artifacts"] = lambda c, s: check_artifacts(c, s, out_dir)
    return todo


def run_check(check, cfg, summary) -> list[str]:
    """A check's failures; one that raises on malformed output fails with
    the exception as its message."""
    try:
        return check(cfg, summary)
    except Exception as exc:  # malformed output fails the check, not the run
        return [f"raised {type(exc).__name__}: {exc}"]


def study_checks(cfg, summary, out_dir: str | None = None) -> dict[str, list[str]]:
    """Every check that applies to one cell, by name."""
    return {name: run_check(check, cfg, summary)
            for name, check in applicable_checks(cfg, out_dir).items()}
