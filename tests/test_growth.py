import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdopt.errors import DomainError
from seqdopt.growth import (
    cumulative_fisher_nlr,
    fisher_info_nlr,
    growth_grad,
    growth_mean,
    simulate_response_nlr,
)
from seqdopt.linalg import central_diff_gradient, det_sym
from seqdopt.modelspec import default_model

THETA = np.array([32.11, 105.65])
THETA3 = np.array([32.11, 105.65, 86.67])
X0 = 86.67
SIGMA2 = 0.086

M1 = default_model("M1", sigma2=SIGMA2)
M2 = default_model("M2", sigma2=SIGMA2, x0_known=X0)
M3 = default_model("M3", sigma2=SIGMA2)

#: (spec, theta) per growth model; the parametrized tests call the spec `kind`
MODELS = [(M1, THETA), (M2, THETA), (M3, THETA3)]


def _linear_branch(model, theta, x0):
    """Intercept and slope of the mean's linear branch, read off the mean
    at two points past the change point."""
    lo, hi = growth_mean(model, theta, x0), growth_mean(model, theta, x0 + 1.0)
    return lo - (hi - lo) * x0, hi - lo


def test_linear_branch_intercept_vanishes_when_a2_equals_x0():
    # the (1 - a2/x0) factor vanishes exactly when a2 == x0
    for model, theta in ((default_model("M2", x0_known=50.0), (1.0, 50.0)),
                        (M3, (1.0, 50.0, 50.0))):
        a, b = _linear_branch(model, theta, 50.0)
        assert a == pytest.approx(0.0, abs=1e-15)
        assert b == pytest.approx(np.exp(-1.0) / 50.0, rel=1e-12)


def test_mean_value_and_slope_continuous_at_change_point():
    eps = 1e-5
    # exponential branch value and slope at x0 (M1 is that branch everywhere)
    left_val = growth_mean(M1, THETA, X0)
    left_slope = (growth_mean(M1, THETA, X0 + eps) - growth_mean(M1, THETA, X0 - eps)) / (2 * eps)
    for model, theta in ((M2, THETA), (M3, THETA3)):
        a, b = _linear_branch(model, theta, X0)
        assert abs(left_val - (a + b * X0)) < 1e-10
        assert abs(left_slope - b) < 1e-8


def test_linear_branch_joins_exponential_at_change_point():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a1, a2, x0 = rng.uniform(0.5, 200, size=3)
        expo = a1 * np.exp(-a2 / x0)   # exponential branch at x0, and its slope
        assert growth_mean(M3, (a1, a2, x0), x0) == pytest.approx(expo, rel=1e-12)
        _, b = _linear_branch(M3, (a1, a2, x0), x0)
        assert b == pytest.approx(expo * a2 / x0**2, rel=1e-6)


def test_mean_m1_unit_exponent():
    # exponent is exactly -1 when a2 == x
    assert growth_mean(M1, (1.0, 50.0), 50.0) == pytest.approx(np.exp(-1.0))


def test_mean_m1_frozen_value():
    # fixture value computed independently: 32.11 * exp(-105.65 / 210)
    assert growth_mean(M1, THETA, 210.0) == pytest.approx(19.415510753678003, rel=1e-12)


def test_mean_m2_branches_agree_at_change_point():
    lo = growth_mean(M2, THETA, X0 - 1e-9)
    hi = growth_mean(M2, THETA, X0)
    assert abs(lo - hi) < 1e-8


@pytest.mark.parametrize("kind,theta", MODELS)
def test_mean_continuity_near_change_point(kind, theta):
    if kind.name == "M1":
        pytest.skip("no change point")
    eps = 1e-6
    gap = abs(growth_mean(kind, theta, X0 - eps) - growth_mean(kind, theta, X0 + eps))
    assert gap < 1e-6


def test_mean_rejects_nonpositive_x():
    with pytest.raises(DomainError):
        growth_mean(M1, THETA, 0.0)
    with pytest.raises(DomainError):
        growth_grad(M3, THETA3, -3.0)


def test_mean_m1_strictly_increasing():
    xs = np.linspace(0.5, 210.0, 500)
    vals = growth_mean(M1, THETA, xs)
    assert np.all(np.diff(vals) > 0.0)


def test_grad_m1_components():
    x = 77.0
    g = growth_grad(M1, THETA, x)
    assert g[0] == pytest.approx(np.exp(-THETA[1] / x), rel=1e-12)
    assert g[1] == pytest.approx(-THETA[0] * np.exp(-THETA[1] / x) / x, rel=1e-12)
    assert g[0] > 0.0


def test_grad_m3_change_point_component_zero_on_exponential_branch():
    g = growth_grad(M3, THETA3, 50.0)  # 50 < x0
    assert g[2] == 0.0
    g_lin = growth_grad(M3, THETA3, 150.0)
    assert g_lin[2] != 0.0


@pytest.mark.parametrize("kind,theta", MODELS)
def test_grad_matches_central_differences(kind, theta):
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.uniform(0.6, 209.0)
        if kind.name != "M1" and abs(x - X0) < 0.5:
            continue  # finite differences straddle the kink there
        t = np.asarray(theta, dtype=float) * rng.uniform(0.8, 1.2, size=len(theta))
        if kind.name == "M3":
            t[2] = float(np.clip(t[2], 5.0, 205.0))
        numeric = central_diff_gradient(lambda v: growth_mean(kind, v, x), t)
        analytic = growth_grad(kind, t, x)
        assert np.allclose(numeric, analytic, rtol=1e-5, atol=1e-10)


def test_grad_vectorized_matches_scalar():
    xs = np.array([5.0, 50.0, 86.67, 150.0, 210.0])
    stacked = growth_grad(M3, THETA3, xs)
    for k, x in enumerate(xs):
        assert np.allclose(stacked[k], growth_grad(M3, THETA3, x))


def _oracle_growth_grad(model, theta, x):
    """The replaced gradient: both branches on every point, joined by
    np.where and stacked."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    a1, a2 = theta[0], theta[1]
    x0 = theta[2] if model.name == "M3" else (float(model.x0_known) if model.name == "M2"
                                             else np.inf)
    e_x = np.exp(-a2 / x)
    d_a1_expo = e_x
    d_a2_expo = -a1 * e_x / x
    if model.name == "M1":
        return np.stack(np.broadcast_arrays(d_a1_expo, d_a2_expo), axis=-1)
    e0 = np.exp(-a2 / x0)
    phi = 1.0 - a2 / x0 + a2 * x / x0**2
    d_a1_lin = e0 * phi
    d_a2_lin = a1 * e0 * (-phi / x0 + (-1.0 / x0 + x / x0**2))
    on_lin = x >= x0
    comps = [np.where(on_lin, d_a1_lin, d_a1_expo), np.where(on_lin, d_a2_lin, d_a2_expo)]
    if model.name == "M3":
        d_x0_lin = a1 * e0 * ((a2 / x0**2) * phi + (a2 / x0**2 - 2.0 * a2 * x / x0**3))
        comps.append(np.where(on_lin, d_x0_lin, 0.0))
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


@st.composite
def grad_inputs(draw):
    """A model, theta in the fit box, and points as a float or a 1-D or 2-D
    array, some of them exactly at the change point."""
    model = draw(st.sampled_from([M1, M2, M3]))
    theta = [draw(st.floats(1e-3, 1e3)) for _ in range(2)]
    if model.name == "M3":
        theta.append(draw(st.floats(1.5, 209.0)))
    x0 = theta[2] if model.name == "M3" else X0
    shape = draw(st.sampled_from([(), (1,), (12,), (3, 4), (5, 1)]))
    points = draw(st.lists(st.one_of(st.just(x0), st.floats(0.5, 210.0)),
                           min_size=max(1, int(np.prod(shape))),
                           max_size=max(1, int(np.prod(shape)))))
    x = points[0] if shape == () else np.reshape(points, shape)
    return model, np.array(theta), x


@settings(max_examples=400, deadline=None, derandomize=True)
@given(grad_inputs())
def test_grad_equals_the_replaced_gradient_bit_for_bit(inputs):
    model, theta, x = inputs
    new, old = growth_grad(model, theta, x), _oracle_growth_grad(model, theta, x)
    assert new.shape == old.shape == np.shape(x) + (model.dim,)
    assert np.array_equal(new, old)


def test_fisher_m1_off_diagonal_pattern():
    # single-point information has off-diagonal -a1/x * exp(-2 a2/x) / s2
    x = 100.0
    info = fisher_info_nlr(M1, THETA, x)
    expected = -THETA[0] / x * np.exp(-2.0 * THETA[1] / x) / SIGMA2
    assert info[0, 1] == pytest.approx(expected, rel=1e-12)
    assert info[1, 0] == info[0, 1]
    assert info[0, 0] == pytest.approx(np.exp(-2.0 * THETA[1] / x) / SIGMA2, rel=1e-12)


@pytest.mark.parametrize("kind,theta", MODELS)
def test_fisher_rank_one_and_psd(kind, theta):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(0.6, 210.0)
        info = fisher_info_nlr(kind, theta, x)
        assert abs(det_sym(info)) < 1e-10 * max(1.0, np.abs(info).max() ** info.shape[0])
        assert np.trace(info) > 0.0
        assert np.all(np.linalg.eigvalsh(info) > -1e-12)


def test_fisher_outer_product_recomputation():
    x = 210.0
    g = growth_grad(M2, THETA, x)
    explicit = np.outer(g, g) / SIGMA2
    assert np.allclose(fisher_info_nlr(M2, THETA, x), explicit)


def test_cumulative_fisher_matches_sum():
    xs = np.array([5.0, 50.0, 120.0, 200.0])
    total = sum(fisher_info_nlr(M3, THETA3, x) for x in xs)
    assert np.allclose(cumulative_fisher_nlr(M3, THETA3, xs), total)


def test_simulate_zero_variance_returns_mean():
    rng = np.random.default_rng(0)
    y = simulate_response_nlr(dataclasses.replace(M1, sigma2=0.0), THETA, 100.0, rng)
    assert y == growth_mean(M1, THETA, 100.0)


def test_simulate_deterministic_given_seed():
    a = [simulate_response_nlr(M1, THETA, 100.0, np.random.default_rng(9))
         for _ in range(3)]
    assert a[0] == a[1] == a[2]


def test_simulate_sampling_statistics():
    rng = np.random.default_rng(11)
    draws = np.array([simulate_response_nlr(M1, THETA, 100.0, rng)
                      for _ in range(10_000)])
    mean = growth_mean(M1, THETA, 100.0)
    assert abs(draws.mean() - mean) < 3.0 * np.sqrt(SIGMA2) / 100.0
    assert abs(draws.var() - SIGMA2) < 0.1 * SIGMA2
