import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdopt.config import parse_config
from seqdopt.engine import run
from seqdopt.errors import InsufficientData
from seqdopt.fitting import (
    C1_EDGE,
    C2_UBOUND,
    _nls_bounds,
    cells_from_pairs,
    golden_section_min,
    local_minimize,
    logistic_mle_c1,
    logistic_mle_c2,
    nelder_mead,
    nls_fit,
    nls_refit,
)
from seqdopt.growth import ExperimentInterval, NlrKind, growth_mean
from seqdopt.linalg import central_diff_gradient
from seqdopt.logistic import LEVEL_POINTS, simulate_binary
from seqdopt.metrics import true_fisher_info
from seqdopt.modelspec import closed_form_design, default_model, fit

OMEGA = ExperimentInterval(0.5, 210.0)
THETA = np.array([32.11, 105.65])
THETA3 = np.array([32.11, 105.65, 86.67])
SIGMA2 = 0.086


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


def test_golden_section_quadratic():
    x, fx, _ = golden_section_min(lambda t: (t - 2.0) ** 2, 0.0, 5.0)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# nonlinear least squares
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,theta", [("M1", THETA), ("M2", THETA), ("M3", THETA3)])
def test_nls_recovers_noiseless_truth(name, theta):
    model = default_model(name)
    kind = model.nlr_kind
    x = np.linspace(5.0, 210.0, 10)
    y = growth_mean(kind, theta, x)
    res = nls_fit(kind, x, y, interval=OMEGA)
    assert np.allclose(res.theta, theta, rtol=1e-4)
    assert res.converged


def test_nls_insufficient_data():
    kind = NlrKind("M1")
    with pytest.raises(InsufficientData):
        nls_fit(kind, [100.0, 120.0], [5.0, 6.0], interval=OMEGA)
    with pytest.raises(InsufficientData):
        nls_fit(kind, [100.0] * 8, [5.0] * 8, interval=OMEGA)


@pytest.mark.parametrize("name,init", [("M1", "uniform"), ("M2", "three_point"),
                                       ("M3", "uniform")])
def test_lm_refit_never_worse_than_simplex_refit(name, init):
    # replay a recorded run: at every stage-2 step refit the data so far from
    # the previous step's estimate with Levenberg-Marquardt and with the
    # one-start box-projected simplex it replaced (xtol 1e-5, 1% first step)
    cfg = parse_config(model=name, method="pics", n1=40, n=100,
                       initial_design=init, seed=8)
    traj = run(cfg)
    kind = traj.model.nlr_kind
    lo, hi = [1e-3, 1e-3], [1e3, 1e3]
    if name == "M3":
        lo, hi = lo + [OMEGA.x_min + 1.0], hi + [OMEGA.x_max - 1.0]
    bounds = (np.array(lo), np.array(hi))
    xs, ys = traj.x, traj.y
    for i in range(traj.n1, len(traj)):
        start = traj.theta_hat[i - 1]
        x, y = xs[:i + 1], ys[:i + 1]

        def rss(t):
            return float(np.sum((y - growth_mean(kind, t, x)) ** 2))

        lm = nls_refit(kind, x, y, start, interval=OMEGA)
        simplex = local_minimize(rss, start, bounds=bounds, n_starts=1, xtol=1e-5,
                                 init_step=0.01)
        assert lm.converged
        assert rss(lm.theta) <= simplex.objective, (i, lm.theta, simplex.theta)
        assert lm.objective == pytest.approx(rss(lm.theta), rel=1e-12)


def test_lm_refit_stays_in_bounds_and_never_worse_than_init():
    rng = np.random.default_rng(9)
    kind = NlrKind("M3")
    x = rng.uniform(1.0, 210.0, 60)
    y = growth_mean(kind, THETA3, x) + rng.normal(0, np.sqrt(SIGMA2), 60)
    for init in ([32.0, 105.0, 209.0], [1e3, 1e-3, 1.0], THETA3 * 1.2):
        res = nls_refit(kind, x, y, init, interval=OMEGA)
        start = np.clip(init, [1e-3, 1e-3, 1.5], [1e3, 1e3, 209.0])
        assert np.all(res.theta >= [1e-3, 1e-3, 1.5])
        assert np.all(res.theta <= [1e3, 1e3, 209.0])
        assert res.objective <= float(np.sum((y - growth_mean(kind, start, x)) ** 2))


def test_nls_gradient_small_at_optimum():
    rng = np.random.default_rng(1)
    kind = NlrKind("M1")
    x = rng.uniform(1.0, 210.0, 60)
    y = growth_mean(kind, THETA, x) + rng.normal(0, np.sqrt(SIGMA2), 60)
    res = nls_fit(kind, x, y, interval=OMEGA)

    def rss(t):
        return float(np.sum((y - growth_mean(kind, t, x)) ** 2))

    grad = central_diff_gradient(rss, res.theta)
    assert res.converged
    assert np.linalg.norm(grad) < 1e-4 * (1.0 + res.objective)


def test_nls_m1_within_three_standard_errors():
    # oracle: asymptotic covariance from the optimal-design information;
    # draws come from the optimal design itself
    model = default_model("M1")
    kind = model.nlr_kind
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
        y = growth_mean(kind, THETA, x) + rng.normal(0, np.sqrt(SIGMA2), n)
        res = nls_fit(kind, x, y, interval=OMEGA)
        if np.all(np.abs(res.theta - THETA) <= 3.0 * se):
            hits += 1
    assert hits >= 95


def test_nls_m3_profile_cold_start():
    rng = np.random.default_rng(2)
    kind = NlrKind("M3")
    x = rng.uniform(1.0, 210.0, 120)
    y = growth_mean(kind, THETA3, x) + rng.normal(0, np.sqrt(SIGMA2), 120)
    res = nls_fit(kind, x, y, interval=OMEGA)
    assert np.allclose(res.theta[:2], THETA3[:2], rtol=0.1)
    assert abs(res.theta[2] - THETA3[2]) < 10.0


# ---------------------------------------------------------------------------
# constrained logistic likelihoods
# ---------------------------------------------------------------------------

def test_cells_from_pairs():
    data = [((1, 1), 1), ((1, 1), 0), ((-1, -1), 1), ((1, -1), 0)]
    counts, succ = cells_from_pairs(data)
    assert counts.tolist() == [2, 1, 0, 1]
    assert succ.tolist() == [1, 0, 0, 1]


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
    lo, hi = _nls_bounds(model.nlr_kind, model.interval)
    theta = [data.draw(st.floats(float(a), float(b))) for a, b in zip(lo, hi)]
    _assert_probability_measure(closed_form_design(model, theta))
