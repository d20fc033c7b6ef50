import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdopt import fitting
from seqdopt.config import parse_config
from seqdopt.engine import run
from seqdopt.errors import InsufficientData
from seqdopt.fitting import (
    ALPHA_BOUNDS,
    C1_EDGE,
    C2_UBOUND,
    LM_LAMBDA0,
    LM_LAMBDA_MIN,
    LM_MAX_ITER,
    LM_XTOL,
    FitResult,
    _amplitude_profile,
    _nls_bounds,
    local_minimize,
    logistic_mle_c1,
    logistic_mle_c2,
    nelder_mead,
    nls_fit,
    nls_refit,
)
from seqdopt.growth import cumulative_fisher_nlr, growth_grad, growth_mean
from seqdopt.linalg import central_diff_gradient
from seqdopt.logistic import LEVEL_POINTS, simulate_binary
from seqdopt.metrics import true_fisher_info
from seqdopt.modelspec import closed_form_design, default_model, fit, simulate

THETA = np.array([32.11, 105.65])
THETA3 = np.array([32.11, 105.65, 86.67])
SIGMA2 = 0.086
#: seeded stage-1 datasets per model in the cold-fit oracle comparison
ORACLE_SEEDS = {"M1": 20, "M2": 20, "M3": 8}


# ---------------------------------------------------------------------------
# local optimizers
# ---------------------------------------------------------------------------

def test_nelder_mead_quadratic():
    res = nelder_mead(lambda x: (x[0] - 3.0) ** 2, np.array([0.0]),
                      bounds=(np.array([-10.0]), np.array([10.0])))
    assert res.converged
    assert res.theta[0] == pytest.approx(3.0, abs=1e-6)


def test_nelder_mead_rosenbrock():
    def rosen(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    res = local_minimize(rosen, np.array([-1.2, 1.0]))
    assert np.allclose(res.theta, [1.0, 1.0], atol=1e-4)


def test_nelder_mead_projects_start_into_bounds():
    seen = []

    def f(x):
        seen.append(x.copy())
        return float(x @ x)

    bounds = (np.array([1.0, 1.0]), np.array([5.0, 5.0]))
    nelder_mead(f, np.array([-3.0, 7.0]), bounds=bounds)
    seen = np.array(seen)
    assert np.all(seen >= 1.0 - 1e-12) and np.all(seen <= 5.0 + 1e-12)


def test_local_minimize_multistart_returns_best():
    # deliberately multimodal in 1-d; the unperturbed start must be tried
    def f(x):
        return min((x[0] - 1.0) ** 2, (x[0] + 1.0) ** 2 + 0.5)

    res = local_minimize(f, np.array([1.0]), n_starts=3)
    assert res.objective <= f(np.array([1.0])) + 1e-12


# ---------------------------------------------------------------------------
# nonlinear least squares
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,theta", [("M1", THETA), ("M2", THETA), ("M3", THETA3)])
def test_nls_recovers_noiseless_truth(name, theta):
    model = default_model(name)
    x = np.linspace(5.0, 210.0, 10)
    y = growth_mean(model, theta, x)
    res = nls_fit(model, x, y)
    assert np.allclose(res.theta, theta, rtol=1e-4)
    assert res.converged


def test_nls_insufficient_data():
    model = default_model("M1")
    with pytest.raises(InsufficientData):
        nls_fit(model, [100.0, 120.0], [5.0, 6.0])
    with pytest.raises(InsufficientData):
        nls_fit(model, [100.0] * 8, [5.0] * 8)


@pytest.mark.parametrize("name,init", [("M1", "uniform"), ("M2", "three_point"),
                                       ("M3", "uniform")])
def test_lm_refit_never_worse_than_simplex_refit(name, init):
    # replay a recorded run: at every stage-2 step refit the data so far from
    # the previous step's estimate with Levenberg-Marquardt and with the
    # one-start box-projected simplex it replaced (xtol 1e-5, 1% first step)
    cfg = parse_config(model=name, method="pics", n1=40, n=100,
                       initial_design=init, seed=8)
    traj = run(cfg)
    model = traj.model
    lo, hi = [1e-3, 1e-3], [1e3, 1e3]
    if name == "M3":
        lo, hi = lo + [model.x_min + 1.0], hi + [model.x_max - 1.0]
    bounds = (np.array(lo), np.array(hi))
    xs, ys = traj.x, traj.y
    for i in range(traj.n1, len(traj)):
        start = traj.theta_hat[i - 1]
        x, y = xs[:i + 1], ys[:i + 1]

        def rss(t):
            return float(np.sum((y - growth_mean(model, t, x)) ** 2))

        lm = nls_refit(model, x, y, start)
        simplex = local_minimize(rss, start, bounds=bounds, n_starts=1, xtol=1e-5,
                                 init_step=0.01)
        assert lm.converged
        assert rss(lm.theta) <= simplex.objective, (i, lm.theta, simplex.theta)
        assert lm.objective == pytest.approx(rss(lm.theta), rel=1e-12)


def test_lm_refit_stays_in_bounds_and_never_worse_than_init():
    rng = np.random.default_rng(9)
    model = default_model("M3")
    x = rng.uniform(1.0, 210.0, 60)
    y = growth_mean(model, THETA3, x) + rng.normal(0, np.sqrt(SIGMA2), 60)
    for init in ([32.0, 105.0, 209.0], [1e3, 1e-3, 1.0], THETA3 * 1.2):
        res = nls_refit(model, x, y, init)
        start = np.clip(init, [1e-3, 1e-3, 1.5], [1e3, 1e3, 209.0])
        assert np.all(res.theta >= [1e-3, 1e-3, 1.5])
        assert np.all(res.theta <= [1e3, 1e3, 209.0])
        assert res.objective <= float(np.sum((y - growth_mean(model, start, x)) ** 2))


def test_nls_gradient_small_at_optimum():
    rng = np.random.default_rng(1)
    model = default_model("M1")
    x = rng.uniform(1.0, 210.0, 60)
    y = growth_mean(model, THETA, x) + rng.normal(0, np.sqrt(SIGMA2), 60)
    res = nls_fit(model, x, y)

    def rss(t):
        return float(np.sum((y - growth_mean(model, t, x)) ** 2))

    grad = central_diff_gradient(rss, res.theta)
    assert res.converged
    assert np.linalg.norm(grad) < 1e-4 * (1.0 + res.objective)


def test_nls_m1_within_three_standard_errors():
    # oracle: asymptotic covariance from the optimal-design information;
    # draws come from the optimal design itself
    model = default_model("M1")
    i_star = true_fisher_info(model)
    n = 200
    cov = np.linalg.inv(n * i_star)
    se = np.sqrt(np.diag(cov))
    hits = 0
    reps = 100
    for r in range(reps):
        rng = np.random.default_rng(1000 + r)
        half = n // 2
        x = np.array([70.288] * half + [210.0] * half)
        y = growth_mean(model, THETA, x) + rng.normal(0, np.sqrt(SIGMA2), n)
        res = nls_fit(model, x, y)
        if np.all(np.abs(res.theta - THETA) <= 3.0 * se):
            hits += 1
    assert hits >= 95


def test_nls_m3_profile_cold_start():
    rng = np.random.default_rng(2)
    model = default_model("M3")
    x = rng.uniform(1.0, 210.0, 120)
    y = growth_mean(model, THETA3, x) + rng.normal(0, np.sqrt(SIGMA2), 120)
    res = nls_fit(model, x, y)
    assert np.allclose(res.theta[:2], THETA3[:2], rtol=0.1)
    assert abs(res.theta[2] - THETA3[2]) < 10.0


# ---------------------------------------------------------------------------
# the Levenberg-Marquardt refit against the loop it replaced
# ---------------------------------------------------------------------------

def _oracle_nls_refit(model, x, y, init):
    """The replaced refit loop: np.diag damping, np.clip projection, the
    normal equations formed afresh on every iteration, and no normal matrix
    in the result."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lo, hi = _nls_bounds(model)

    def residuals_and_jacobian(theta):
        jac = growth_grad(model, theta, x)
        r = y - theta[0] * jac[:, 0]
        return r, float(r @ r), jac

    theta = np.clip(np.asarray(init, dtype=float), lo, hi)
    r, rss, jac = residuals_and_jacobian(theta)
    lam, converged, it = LM_LAMBDA0, False, 0
    while it < LM_MAX_ITER:
        it += 1
        jtj = jac.T @ jac
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
        else:
            lam *= 10.0
    return FitResult(theta=theta, objective=rss, converged=converged, iterations=it)


@pytest.fixture(scope="module")
def recorded_refits():
    """(model, x, y, init) of every Levenberg-Marquardt refit of
    short M1/M2/M3 cm and pics runs, the cold fits' final polish included,
    and of the high-noise edge configs, whose M3 refits exhaust LM_MAX_ITER."""
    calls, original = [], fitting.nls_refit

    def recorder(model, x, y, init):
        calls.append((model, np.array(x, dtype=float), np.array(y, dtype=float),
                      np.array(init, dtype=float)))
        return original(model, x, y, init)

    fitting.nls_refit = recorder
    try:
        for name in ("M1", "M2", "M3"):
            for method in ("cm", "pics"):
                run(parse_config(model=name, method=method, n1=20, n=40, seed=5))
            extra = {"x0_known": 5.0} if name == "M2" else {}
            run(parse_config(model=name, method="pics", n1=default_model(name).dim + 2,
                             n=20, sigma2=10.0, seed=0, **extra))
    finally:
        fitting.nls_refit = original
    return calls


def test_refit_equals_the_replaced_loop_bit_for_bit(recorded_refits):
    unconverged = 0
    for model, x, y, init in recorded_refits:
        new = nls_refit(model, x, y, init)
        old = _oracle_nls_refit(model, x, y, init)
        assert np.array_equal(new.theta, old.theta)
        assert new.objective == old.objective
        assert (new.iterations, new.converged) == (old.iterations, old.converged)
        unconverged += not new.converged
    assert len(recorded_refits) > 150 and unconverged > 0


@pytest.mark.parametrize("sigma2", [SIGMA2, 10.0])
def test_refit_normal_matrix_is_the_cumulative_information(recorded_refits, sigma2):
    # the engine's information: the same g^T g / sigma2, bit for bit, also
    # when the refit stopped on its iteration budget right after a step
    for model, x, y, init in recorded_refits:
        res = nls_refit(model, x, y, init)
        at_sigma2 = dataclasses.replace(model, sigma2=sigma2)
        assert np.array_equal(res.normal / sigma2,
                              cumulative_fisher_nlr(at_sigma2, res.theta, x))


# ---------------------------------------------------------------------------
# the variable-projection cold fit against the simplex cold fit it replaced
# ---------------------------------------------------------------------------

def _oracle_rss_fn(model, x, y):
    """RSS closure of the replaced cold fit, on the data sorted by x."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    inv_x = 1.0 / xs

    if model.name == "M1":
        def rss(theta):
            r = ys - theta[0] * np.exp(-theta[1] * inv_x)
            return float(r @ r)
        return rss

    def branched_rss(a1, a2, x0, k):
        r_lo = ys[:k] - a1 * np.exp(-a2 * inv_x[:k])
        r_hi = ys[k:] - a1 * np.exp(-a2 / x0) * (1.0 - a2 / x0 + a2 * xs[k:] / x0**2)
        return float(r_lo @ r_lo + r_hi @ r_hi)

    if model.name == "M2":
        x0 = float(model.x0_known)
        k_fixed = int(np.searchsorted(xs, x0, side="left"))
        return lambda theta: branched_rss(theta[0], theta[1], x0, k_fixed)

    def rss(theta):
        k = int(np.searchsorted(xs, theta[2], side="left"))
        return branched_rss(theta[0], theta[1], theta[2], k)
    return rss


def _oracle_exp_start(x, y):
    """Log-linear regression of y on 1/x as the start for (a1, a2)."""
    usable = y > max(1e-6, 0.02 * float(np.max(y, initial=0.0)))
    if usable.sum() >= 2 and np.ptp(x[usable]) > 0.0:
        coef = np.polyfit(1.0 / x[usable], np.log(y[usable]), 1)
        return np.array([np.clip(np.exp(coef[1]), *ALPHA_BOUNDS),
                         np.clip(-coef[0], *ALPHA_BOUNDS)])
    return np.array([1.0, 1.0])


def _oracle_golden_section(f, lo, hi, xtol):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while b - a > xtol * (1.0 + abs(a) + abs(b)) and it < 200:
        it += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return c if fc < fd else d


def _oracle_m3_start(model, x, y):
    """Change-point profile: (a1, a2) simplex fits warm-chained over 40 nodes,
    then a golden section around the best node."""
    grid = np.linspace(model.x_min + 1.0, model.x_max - 1.0, 40)
    inner_bounds = (np.full(2, ALPHA_BOUNDS[0]), np.full(2, ALPHA_BOUNDS[1]))

    def inner(x0, init):
        rss = _oracle_rss_fn(default_model("M2", x0_known=float(x0)), x, y)
        return local_minimize(rss, init, bounds=inner_bounds, n_starts=1,
                              xtol=1e-4, max_iter=80)

    chain, best_k, best_fit = _oracle_exp_start(x, y), 0, None
    for k, x0 in enumerate(grid):
        res = inner(x0, chain)
        chain = res.theta
        if best_fit is None or res.objective < best_fit.objective:
            best_k, best_fit = k, res
    warm = best_fit.theta
    x0_star = _oracle_golden_section(lambda x0: inner(x0, warm).objective,
                                     grid[max(best_k - 1, 0)], grid[min(best_k + 1, 39)],
                                     xtol=1e-3)
    return np.append(inner(x0_star, warm).theta, x0_star)


def _oracle_cold_fit(model, x, y):
    """The replaced cold fit: a start (log-linear, or the M3 profile), then a
    3-start box-projected simplex."""
    bounds = _nls_bounds(model)
    init = _oracle_m3_start(model, x, y) if model.name == "M3" else _oracle_exp_start(x, y)
    init = np.clip(init, bounds[0], bounds[1])
    return local_minimize(_oracle_rss_fn(model, x, y), init, bounds=bounds)


def _stage1_data(name, design, n1, seed):
    """The static stage of the run with this config: points and responses."""
    model = parse_config(model=name, n1=n1, n=n1 + 1, initial_design=design,
                         seed=seed).to_model()
    rng = np.random.default_rng(seed)
    x = np.array(model.family.initial_points(model, design, n1, rng))
    y = np.array([simulate(model, v, rng) for v in x])
    return model, x, y


@pytest.mark.parametrize("name", ["M1", "M2", "M3"])
def test_amplitude_profile_matches_direct_rss(name):
    # the prefix-sum grid and the scalar path both equal the RSS of
    # growth_mean at the projected amplitude, ties at x0 included
    model, x, y = _stage1_data(name, "uniform" if name != "M2" else "three_point", 30, 4)
    x0s = np.array([x[3], 50.0, 150.0]) if name == "M3" else \
        np.array([model.x0_known if name == "M2" else np.inf])
    a2s = np.array([1e-3, 20.0, 105.65, 900.0])
    grid, at = _amplitude_profile(x, y)
    a1, rss = grid(a2s, x0s)
    for i, a2 in enumerate(a2s):
        for j, x0 in enumerate(x0s):
            theta = [a1[i, j], a2, x0][:model.dim]
            r = y - growth_mean(model, theta, x)
            assert rss[i, j] == pytest.approx(float(r @ r), rel=1e-9)
            assert at(a2, x0) == pytest.approx((a1[i, j], rss[i, j]), rel=1e-12)
            assert ALPHA_BOUNDS[0] <= a1[i, j] <= ALPHA_BOUNDS[1]


@pytest.mark.parametrize("name,design,n1", [
    ("M3", "uniform", 20), ("M3", "uniform", 40), ("M3", "uniform", 60),
    ("M1", "uniform", 8), ("M1", "uniform", 40),
    ("M1", "three_point", 8), ("M1", "three_point", 40),
    ("M2", "three_point", 8), ("M2", "three_point", 40)])
def test_cold_fit_never_worse_than_simplex_oracle(name, design, n1):
    for seed in range(ORACLE_SEEDS[name]):
        model, x, y = _stage1_data(name, design, n1, seed)
        res = nls_fit(model, x, y)
        oracle = _oracle_cold_fit(model, x, y)
        r = y - growth_mean(model, res.theta, x)
        assert res.objective == pytest.approx(float(r @ r), rel=1e-12)
        assert res.objective <= oracle.objective * (1.0 + 1e-9), (seed, res.theta,
                                                                   oracle.theta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n1=st.integers(6, 60), log2_scale=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       x0=st.floats(10.5, 200.0), seed=st.integers(0, 2**32 - 1))
def test_cold_fit_recovers_noise_free_m3(n1, log2_scale, x0, seed):
    # a1 and a2 within a factor 2 of the truth, points uniform on the interval
    theta = [THETA3[0] * 2.0 ** log2_scale[0], THETA3[1] * 2.0 ** log2_scale[1], x0]
    model = default_model("M3")
    x = np.random.default_rng(seed).uniform(model.x_min, model.x_max, n1)
    y = growth_mean(model, theta, x)
    res = nls_fit(model, x, y)
    assert res.objective <= 1e-10 * float(y @ y), res.theta


# ---------------------------------------------------------------------------
# constrained logistic likelihoods
# ---------------------------------------------------------------------------

def test_c1_balanced_data_gives_zero():
    counts = np.array([10.0, 10.0, 10.0, 10.0])
    succ = counts / 2.0
    res = logistic_mle_c1(counts=counts, successes=succ)
    assert abs(res.theta[0]) < 1e-6
    assert not res.boundary


def test_c1_matches_grid_scan():
    # concavity check: golden-section result matches a fine grid argmax
    rng = np.random.default_rng(3)
    for _ in range(10):
        counts = rng.integers(5, 40, size=4).astype(float)
        succ = np.array([rng.integers(1, c) for c in counts], dtype=float)
        res = logistic_mle_c1(counts=counts, successes=succ)
        grid = np.arange(-C1_EDGE, C1_EDGE, 1e-4)
        mult = np.array([3.0, 1.0, 1.0, -1.0])
        ll = grid[:, None] * mult[None, :]
        obj = (counts[None, :] * np.logaddexp(0.0, ll) - succ[None, :] * ll).sum(axis=1)
        assert abs(res.theta[0] - grid[np.argmin(obj)]) < 1e-3


def _nll_cells(counts, succ, etas) -> float:
    """Logistic negative log-likelihood of a 4-cell table."""
    return sum(n * (max(e, 0.0) + math.log1p(math.exp(-abs(e)))) - k * e
               for n, k, e in zip(counts, succ, etas))


def _random_tables(seed: int, count: int):
    """4-cell tables mixing plain draws with empty cells, separated rows and
    the symmetric table."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        counts = rng.integers(0, 40, size=4).astype(float)
        succ = np.array([rng.integers(0, c + 1) for c in counts], dtype=float)
        if k % 5 == 1:
            counts[k % 4] = succ[k % 4] = 0.0     # an empty cell
        elif k % 5 == 2:
            succ[:2] = counts[:2]                 # x1 = +1 rows all successes
        elif k % 5 == 3:
            succ[2:] = 0.0                        # x1 = -1 rows all failures
        elif k % 15 == 4:
            counts[:] = 20.0                      # symmetric table
            succ[:] = 10.0
        yield counts, succ


def test_c1_exact_fit_matches_simplex_oracle():
    mult = (3.0, 1.0, 1.0, -1.0)
    bounds = (np.array([-C1_EDGE]), np.array([C1_EDGE]))
    for counts, succ in _random_tables(11, 200):
        def nll(b):
            return _nll_cells(counts, succ, [b[0] * m for m in mult])

        res = logistic_mle_c1(counts=counts, successes=succ)
        oracle = local_minimize(nll, np.array([0.0]), bounds=bounds, n_starts=1,
                                xtol=1e-12)
        assert res.objective <= oracle.objective + 1e-12
        assert abs(res.theta[0] - oracle.theta[0]) <= 1e-6
        assert res.objective == pytest.approx(nll(res.theta), abs=1e-12)


def test_c1_separation_hits_boundary():
    counts = np.array([5.0, 5.0, 5.0, 5.0])
    succ = counts.copy()  # all successes
    res = logistic_mle_c1(counts=counts, successes=succ)
    assert res.boundary
    assert res.theta[0] == pytest.approx(C1_EDGE)


def test_c1_recovery_from_simulated_data():
    beta = (0.7125, 0.7125, 0.7125)
    hits = 0
    for r in range(50):
        rng = np.random.default_rng(2000 + r)
        counts = np.full(4, 200.0)
        succ = np.zeros(4)
        for c, p in enumerate(LEVEL_POINTS):
            succ[c] = sum(simulate_binary(beta, p, rng) for _ in range(200))
        res = logistic_mle_c1(counts=counts, successes=succ)
        if abs(res.theta[0] - 0.7125) < 0.1:
            hits += 1
    assert hits >= 45


def test_c2_sign_consistency():
    rng = np.random.default_rng(4)
    for _ in range(20):
        counts = rng.integers(10, 50, size=4).astype(float)
        succ = np.array([rng.integers(0, c + 1) for c in counts], dtype=float)
        res = logistic_mle_c2(counts=counts, successes=succ)
        assert res.theta[0] * res.theta[1] > 0.0
        assert res.theta[2] == 0.0


def test_c2_symmetric_data_tiny_same_sign():
    counts = np.full(4, 25.0)
    succ = counts / 2.0
    res = logistic_mle_c2(counts=counts, successes=succ)
    assert res.theta[0] * res.theta[1] > 0.0
    assert abs(res.theta[0]) < 1e-3 and abs(res.theta[1]) < 1e-3
    assert res.boundary  # magnitudes pinned at the lower box edge


def _c2_oracle(counts, succ) -> tuple[float, np.ndarray]:
    """Simplex over signed log-magnitudes in both sign quadrants."""
    bounds = (np.full(2, -C2_UBOUND), np.full(2, C2_UBOUND))
    best = (np.inf, None)
    for sign in (1.0, -1.0):
        def nll(u):
            b0, b1 = sign * math.exp(u[0]), sign * math.exp(u[1])
            return _nll_cells(counts, succ, (b0 + b1, b0 + b1, b0 - b1, b0 - b1))

        for u0 in ((0.0, -1.0), (2.0, 2.0)):
            res = local_minimize(nll, np.array(u0), bounds=bounds, n_starts=1,
                                 xtol=1e-12)
            if res.objective < best[0]:
                best = (res.objective, sign * np.exp(res.theta))
    return best


def test_c2_exact_fit_matches_simplex_oracle():
    # the objective agrees everywhere and is never worse; the coefficients
    # are compared where the maximizer is unique (off the magnitude box:
    # on it the likelihood can be flat along the edge or tie across the
    # two sign quadrants)
    interior = 0
    for counts, succ in _random_tables(12, 200):
        res = logistic_mle_c2(counts=counts, successes=succ)
        oracle_obj, oracle_theta = _c2_oracle(counts, succ)
        assert res.theta[0] * res.theta[1] > 0.0 and res.theta[2] == 0.0
        assert res.objective <= oracle_obj + 1e-12
        assert res.objective == pytest.approx(oracle_obj, abs=1e-6)
        if not res.boundary:
            interior += 1
            assert np.allclose(res.theta[:2], oracle_theta, atol=1e-6, rtol=0.0)
    assert interior >= 50


def test_c2_recovery_from_simulated_data():
    # oracle: asymptotic covariance of the constrained (b0, b1) estimator,
    # i.e. the 2x2 information of the uniform n=800 design; coverage at
    # 2.5 SE per component clears 90% with margin
    from seqdopt.logistic import cell_weights

    beta = (1.5, 0.5, 0.0)
    w = cell_weights(beta)
    diag = 200.0 * (2 * w[0] + 2 * w[2])
    off = 200.0 * (2 * w[0] - 2 * w[2])
    cov = np.linalg.inv(np.array([[diag, off], [off, diag]]))
    se = np.sqrt(np.diag(cov))
    hits = 0
    for r in range(50):
        rng = np.random.default_rng(3000 + r)
        counts = np.full(4, 200.0)
        succ = np.zeros(4)
        for c, p in enumerate(LEVEL_POINTS):
            succ[c] = sum(simulate_binary(beta, p, rng) for _ in range(200))
        res = logistic_mle_c2(counts=counts, successes=succ)
        if np.all(np.abs(res.theta[:2] - np.array([1.5, 0.5])) <= 2.5 * se):
            hits += 1
    assert hits >= 45


def test_c2_warm_sign_restriction_matches_full_fit():
    rng = np.random.default_rng(5)
    beta = (1.5, 0.5, 0.0)
    counts = np.full(4, 150.0)
    succ = np.array([sum(simulate_binary(beta, p, rng) for _ in range(150))
                     for p in LEVEL_POINTS], dtype=float)
    full = logistic_mle_c2(counts=counts, successes=succ)
    # the engine's sequential refit passes the incumbent estimate as init
    warm = fit(default_model("GLM_C2"), None, None, init=np.array([1.4, 0.6, 0.0]),
               cell_counts=counts, cell_successes=succ)
    assert np.allclose(full.theta, warm.theta, atol=1e-4)


# ---------------------------------------------------------------------------
# every estimate a fit can return admits the closed form (the plug-in step
# draws from it with no fallback)
# ---------------------------------------------------------------------------

def _assert_probability_measure(measure):
    assert min(measure.weights) >= 0.0
    assert math.fsum(measure.weights) == pytest.approx(1.0, abs=1e-12)


@st.composite
def cell_tables(draw):
    counts = [draw(st.integers(0, 50)) for _ in range(4)]
    successes = [draw(st.integers(0, n)) for n in counts]
    return np.array(counts, dtype=float), np.array(successes, dtype=float)


@settings(max_examples=300, deadline=None)
@given(cell_tables())
@example((np.zeros(4), np.zeros(4)))                            # no data at all
@example((np.full(4, 50.0), np.array([50.0, 50.0, 0.0, 0.0])))  # rows separated
@example((np.full(4, 50.0), np.array([0.0, 0.0, 50.0, 50.0])))
@example((np.full(4, 50.0), np.array([50.0, 0.0, 50.0, 0.0])))  # columns separated
def test_logistic_fit_of_any_table_admits_the_closed_form(table):
    counts, successes = table
    for name in ("GLM_C1", "GLM_C2"):
        model = default_model(name)
        res = fit(model, None, None, cell_counts=counts, cell_successes=successes)
        _assert_probability_measure(closed_form_design(model, res.theta))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["M1", "M2", "M3"]), st.data())
def test_growth_fit_box_admits_the_closed_form(name, data):
    model = default_model(name)
    lo, hi = _nls_bounds(model)
    theta = [data.draw(st.floats(float(a), float(b))) for a, b in zip(lo, hi)]
    _assert_probability_measure(closed_form_design(model, theta))
