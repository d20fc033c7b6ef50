import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdopt.linalg import det_sym, det_sym_batch

from conftest import central_diff_gradient, model_spec, reference_det_sym


def test_det_identity_and_diagonal():
    assert det_sym(np.eye(2)) == 1.0
    assert det_sym(np.diag([2.0, 3.0])) == 6.0
    assert det_sym(np.eye(3)) == 1.0


def test_det_rank_one_is_singular():
    assert det_sym(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_det_requires_small_square():
    with pytest.raises(ValueError):
        det_sym(np.eye(4))
    with pytest.raises(ValueError):
        det_sym(np.ones((2, 3)))


def test_det_multiplicative_on_block_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        # no 4x4 path: compare against numpy on the block matrix
        block = np.zeros((4, 4))
        block[:2, :2], block[2:, 2:] = a, b
        assert det_sym(a) * det_sym(b) == pytest.approx(np.linalg.det(block), rel=1e-10)


def test_det_batch_matches_scalar():
    rng = np.random.default_rng(6)
    mats = rng.normal(size=(10, 3, 3))
    batch = det_sym_batch(mats)
    for k in range(10):
        assert batch[k] == pytest.approx(det_sym(mats[k]), rel=1e-12)


def _matrices(d):
    # entries from ordinary sizes to near 1e200, where the products overflow
    entry = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e200, 1e200),
                      st.sampled_from([0.0, -0.0, 1e200, -1e200, 3e199]))
    return st.lists(entry, min_size=d * d, max_size=d * d).map(
        lambda v: np.array(v).reshape(d, d))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_matrices(2), _matrices(3)))
def test_det_matches_the_numpy_scalar_cofactor_bit_for_bit(a):
    with np.errstate(all="ignore"):
        expected = reference_det_sym(a)
    got = det_sym(a)
    assert type(got) is float
    if np.isnan(expected):
        assert np.array_equal(got, expected, equal_nan=True)
    else:
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_central_diff_simple_functions():
    g = central_diff_gradient(lambda t: t[0] ** 2, np.array([3.0]))
    assert g[0] == pytest.approx(6.0, abs=1e-6)
    g = central_diff_gradient(lambda t: t[0] * t[1], np.array([2.0, 5.0]))
    assert np.allclose(g, [5.0, 2.0], atol=1e-6)


def test_central_diff_matches_analytic_growth_gradient():
    from seqdopt.growth import growth_grad, growth_mean

    model = model_spec("M1")
    theta = np.array([32.11, 105.65])
    numeric = central_diff_gradient(lambda t: growth_mean(model, t, 100.0), theta)
    analytic = growth_grad(model, theta, 100.0)
    assert np.allclose(numeric, analytic, rtol=1e-6)
