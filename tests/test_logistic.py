import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdopt.config import parse_config
from seqdopt.engine import run
from seqdopt.fitting import C2_UBOUND
from seqdopt.logistic import (
    LEVEL_POINTS,
    X_CELLS,
    cell_index,
    cell_probs,
    cell_weights,
    fisher_from_counts,
    sigmoid_scalar,
    weight_at_eta,
)
from seqdopt.modelspec import simulate

from conftest import (model_spec, reference_cell_probs, reference_cell_weights,
                      reference_fisher_from_counts, reference_fisher_info_glm,
                      simulate_binary)

BETA_C1 = (0.7125, 0.7125, 0.7125)
BETA_C2 = (1.5, 0.5, 0.0)
GLM_C1 = model_spec("GLM_C1")


def fisher_info_glm(beta, point):
    """The logistic entry's single-trial information at `beta`."""
    return GLM_C1.family.fisher_point(GLM_C1, beta, point)


def test_row_order_convention():
    assert LEVEL_POINTS == ((1, 1), (1, -1), (-1, 1), (-1, -1))
    assert cell_index((1, 1)) == 0
    assert cell_index((-1, -1)) == 3
    with pytest.raises(ValueError):
        cell_index((0, 1))


def test_cell_index_takes_any_numeric_type_of_an_exact_level_pair():
    for c, (x1, x2) in enumerate(LEVEL_POINTS):
        for point in ((x1, x2), (float(x1), float(x2)), np.array([x1, x2]),
                      (np.int64(x1), np.float64(x2)), [x1, x2]):
            assert cell_index(point) == c


@pytest.mark.parametrize("point", [(1.9, -1.2), (1.9, 1.7), (0.5, 1), (1, 1, 1),
                                   (1,), (float("nan"), 1.0), ((1, 1), (1, 1))])
def test_cell_index_rejects_a_point_off_the_levels_naming_it(point):
    with pytest.raises(ValueError, match="not a coded level combination") as err:
        cell_index(point)
    assert repr(point) in str(err.value)


def test_fisher_point_off_the_levels_is_rejected():
    with pytest.raises(ValueError, match=r"\(1\.9, 1\.7\)"):
        fisher_info_glm(BETA_C1, (1.9, 1.7))


def test_success_prob_zero_beta():
    for p in LEVEL_POINTS:
        assert cell_probs((0.0, 0.0, 0.0))[cell_index(p)] == 0.5


def test_success_prob_frozen_value():
    # oracle: direct scalar evaluation of logistic(3 * 0.7125)
    prob = cell_probs(BETA_C1)[cell_index((1, 1))]
    assert prob == pytest.approx(0.8944949086405465, rel=1e-12)
    assert prob == pytest.approx(0.8945, abs=5e-5)


def test_success_prob_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        beta = rng.normal(size=3)
        assert np.allclose(np.array(cell_probs(beta)) + np.array(cell_probs(-beta)), 1.0)


def test_success_prob_overflow_safe():
    assert cell_probs((700.0, 0.0, 0.0))[cell_index((1, 1))] == pytest.approx(1.0)
    assert cell_probs((-700.0, 0.0, 0.0))[cell_index((1, 1))] == pytest.approx(0.0, abs=1e-300)
    assert 0.0 < cell_probs((-700.0, 0.0, 0.0))[cell_index((1, 1))]
    assert np.isfinite(sigmoid_scalar(700.0)) and np.isfinite(sigmoid_scalar(-700.0))


def test_weight_at_zero_is_quarter():
    assert cell_weights((0.0, 0.0, 0.0))[cell_index((1, -1))] == 0.25


def test_weight_symmetry_in_eta():
    for eta in (0.3, 1.7, 5.0):
        assert weight_at_eta(eta) == pytest.approx(weight_at_eta(-eta), rel=1e-12)


def test_weight_frozen_values():
    # oracle: e^eta / (1 + e^eta)^2 at eta = 2 and eta = 1
    w = cell_weights(BETA_C2)
    assert w[cell_index((1, 1))] == pytest.approx(0.10499358540350662, rel=1e-12)
    assert w[cell_index((-1, 1))] == pytest.approx(0.19661193324148185, rel=1e-12)
    assert w[cell_index((1, 1))] == pytest.approx(0.10499, abs=5e-6)
    assert w[cell_index((-1, -1))] == pytest.approx(0.19661, abs=5e-6)


def test_weights_bounded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = np.array(cell_weights(rng.normal(scale=3, size=3)))
        assert np.all(w > 0.0) and np.all(w <= 0.25)


def test_fisher_zero_beta_all_quarters():
    info = fisher_info_glm((0.0, 0.0, 0.0), (1, 1))
    assert np.allclose(info, 0.25 * np.ones((3, 3)))


def test_fisher_rank_one():
    rng = np.random.default_rng(4)
    for _ in range(10):
        beta = rng.normal(size=3)
        p = LEVEL_POINTS[rng.integers(4)]
        info = fisher_info_glm(beta, p)
        assert np.linalg.matrix_rank(info) == 1
        assert abs(np.linalg.det(info)) < 1e-12


def test_fisher_weight_factorization():
    rng = np.random.default_rng(5)
    for _ in range(10):
        beta = rng.normal(size=3)
        for p in LEVEL_POINTS:
            base = fisher_info_glm((0.0, 0.0, 0.0), p) / 0.25
            assert np.allclose(fisher_info_glm(beta, p),
                               cell_weights(beta)[cell_index(p)] * base)


def test_equal_weight_sum_matches_explicit_matrix_product():
    # oracle: explicit 4x3 sandwich X^T diag(w/4) X at beta = 0
    beta = (0.0, 0.0, 0.0)
    total = sum(0.25 * fisher_info_glm(beta, p) for p in LEVEL_POINTS)
    explicit = X_CELLS.T @ np.diag([0.25 * 0.25] * 4) @ X_CELLS
    assert np.allclose(total, explicit)
    assert np.allclose(total, 0.25 * np.eye(3))


def test_fisher_from_counts_matches_sum():
    rng = np.random.default_rng(6)
    beta = rng.normal(size=3)
    counts = np.array([3, 0, 5, 2])
    total = sum(int(c) * fisher_info_glm(beta, p)
                for c, p in zip(counts, LEVEL_POINTS))
    assert np.allclose(fisher_from_counts(counts, beta), total)


def test_simulate_extreme_beta_always_one():
    rng = np.random.default_rng(7)
    draws = [simulate_binary((50.0, 0.0, 0.0), (1, 1), rng) for _ in range(10_000)]
    assert all(d == 1 for d in draws)


def test_simulate_balanced_beta_mean():
    rng = np.random.default_rng(8)
    draws = [simulate_binary((0.0, 0.0, 0.0), (-1, 1), rng) for _ in range(10_000)]
    assert abs(np.mean(draws) - 0.5) < 0.02


def test_simulate_reproducible():
    seqs = [[simulate_binary(BETA_C1, (1, -1), np.random.default_rng(3))
             for _ in range(5)] for _ in range(2)]
    assert seqs[0] == seqs[1]


@pytest.mark.parametrize("name", ["GLM_C1", "GLM_C2"])
def test_model_simulate_draws_against_cached_probabilities(name):
    model = model_spec(name)
    assert model.success_probs is model.success_probs
    assert model.success_probs == np.array(cell_probs(model.true_params)).tolist()
    # the same draws as simulate_binary at the truth, from the same stream
    ra, rb = np.random.default_rng(4), np.random.default_rng(4)
    points = [LEVEL_POINTS[c] for c in np.random.default_rng(5).integers(0, 4, 400)]
    assert ([simulate(model, p, ra) for p in points]
            == [simulate_binary(model.true_params, p, rb) for p in points])
    # the cache neither travels in a pickle nor enters equality
    assert "success_probs" not in pickle.loads(pickle.dumps(model)).__dict__
    assert pickle.loads(pickle.dumps(model)) == model


#: coefficients from ordinary sizes to past exp's underflow at |eta| ~ 745
_coef = st.one_of(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0), st.floats(-800.0, 800.0))


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(_coef, _coef, _coef), st.lists(st.integers(0, 2000), min_size=4, max_size=4))
def test_fisher_from_counts_reads_lists_and_arrays_alike(beta, counts):
    # the engine's table holds float lists; an array of counts gives the same doubles
    from_list = fisher_from_counts([float(c) for c in counts], beta)
    for other in (np.array(counts, dtype=float), np.array(counts), counts):
        assert _same_bytes(fisher_from_counts(other, beta), from_list)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(_coef, _coef, _coef), st.lists(st.integers(0, 2000), min_size=4, max_size=4))
def test_cell_primitives_match_the_reference_formulas_bit_for_bit(beta, counts):
    assert _same_bytes(cell_probs(beta), reference_cell_probs(beta))
    assert _same_bytes(cell_weights(beta), reference_cell_weights(beta))
    assert _same_bytes(fisher_from_counts(counts, beta),
                       reference_fisher_from_counts(counts, beta))
    for p in LEVEL_POINTS:
        assert _same_bytes(fisher_info_glm(beta, p), reference_fisher_info_glm(beta, p))


# ---------------------------------------------------------------------------
# cell_probs against the numpy product it replaced, bit for bit
# ---------------------------------------------------------------------------

def _oracle_cell_probs(beta) -> list[float]:
    """The replaced cell_probs: the linear predictors as the product
    X_CELLS @ beta, and -|eta| formed on the array."""
    eta = X_CELLS @ np.asarray(beta, dtype=float)
    return [1.0 / (1.0 + e) if h >= 0.0 else e / (1.0 + e)
            for h, e in zip(eta.tolist(), np.exp(-np.abs(eta)).tolist())]


#: the matched-sign fit's box edges, where a cell's weight underflows to 0.0
_EDGE = (math.exp(C2_UBOUND), math.exp(-C2_UBOUND))

#: ordinary and huge coefficients, signed zeros, and the box edges
_coef_or_edge = st.one_of(_coef, st.sampled_from([0.0, -0.0, *_EDGE, *(-v for v in _EDGE)]),
                          st.floats(math.exp(C2_UBOUND - 0.5), math.exp(C2_UBOUND)))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.tuples(_coef_or_edge, _coef_or_edge, _coef_or_edge))
@example((math.exp(C2_UBOUND), math.exp(C2_UBOUND), 0.0))     # x1 = +1 weights 0.0
@example((-math.exp(C2_UBOUND), -math.exp(C2_UBOUND), -0.0))
@example((0.0, -0.0, 0.0))
@example((-0.0, -0.0, -0.0))
def test_cell_probs_equal_the_replaced_product_bit_for_bit(beta):
    probs = cell_probs(beta)
    assert _same_bytes(probs, _oracle_cell_probs(beta))
    assert _same_bytes(cell_probs(np.array(beta)), probs)
    assert _same_bytes(cell_probs(list(beta)), probs)


@pytest.fixture(scope="module")
def recorded_estimates():
    """Every estimate of short GLM_C1 and GLM_C2 cm and pics runs, small
    static stages (separation, the C2 box edge) and ordinary ones."""
    thetas = []
    for name in ("GLM_C1", "GLM_C2"):
        for method in ("cm", "pics"):
            for n1, n, seed in ((8, 100, 3), (8, 100, 4), (80, 200, 5)):
                traj = run(parse_config(model=name, method=method, n1=n1, n=n, seed=seed))
                thetas += traj.theta_hat[n1 - 1:].tolist()
    return thetas


def test_recorded_estimates_give_the_replaced_cell_probs(recorded_estimates):
    # the battery holds estimates on the C2 box edge, whose x1 = +1 weights
    # are 0.0, and C1 estimates at the admissible edge
    assert len(recorded_estimates) > 1000
    assert any(cell_weights(theta)[0] == 0.0 for theta in recorded_estimates)
    for theta in recorded_estimates:
        assert _same_bytes(cell_probs(theta), _oracle_cell_probs(theta))
        assert _same_bytes(cell_probs(np.array(theta)), cell_probs(tuple(theta)))
