import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqdopt.linalg import det_sym, det_sym_batch, solve_sym

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


@pytest.mark.parametrize("shape", [(2, 2), (4, 2, 2), (5, 3, 4)])
def test_det_batch_rejects_a_stack_that_is_not_3x3(shape):
    with pytest.raises(ValueError, match="expected trailing dims 3x3"):
        det_sym_batch(np.ones(shape))


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


@st.composite
def damped_normal_systems(draw):
    """(A, b, kappa): A = J^T J of a 2- or 3-column Jacobian with columns
    scaled over twelve decades, under the refit's Marquardt damping at a
    lambda from 1e-12 to 1e3, with its 2-norm condition number kappa <= 1e12."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(d, 8))
    entries = st.floats(-10.0, 10.0, allow_subnormal=False)
    jac = np.array(draw(st.lists(entries, min_size=n * d, max_size=n * d))).reshape(n, d)
    jac *= 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)))
    jtj = jac.T @ jac
    diag = jtj.diagonal()
    lam = 10.0 ** draw(st.integers(-12, 3))
    damped = jtj + np.diag(lam * np.maximum(diag, 1e-12 * diag.max()))
    b = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    assume(diag.max() > 0.0 and np.any(b != 0.0))
    kappa = np.linalg.cond(damped)
    assume(kappa <= 1e12)
    return damped, b, kappa


@settings(max_examples=400, deadline=None, derandomize=True)
@given(damped_normal_systems())
def test_solve_matches_numpy_on_damped_normal_matrices(system):
    # both solves have a forward error of a few eps * kappa relative to |x|
    a, b, kappa = system
    got = solve_sym(a.tolist(), b.tolist())
    expected = np.linalg.solve(a, b)
    assert got is not None and all(type(v) is float for v in got)
    err = np.linalg.norm(np.array(got) - expected)
    assert err <= 64.0 * kappa * np.finfo(float).eps * np.linalg.norm(expected)


def _singular(d):
    # a sum of d - 1 integer outer products: exactly singular, and every
    # cofactor product of small integers is exact
    vec = st.lists(st.integers(-20, 20), min_size=d, max_size=d)
    return st.lists(vec, min_size=d - 1, max_size=d - 1).map(
        lambda vs: sum(np.outer(v, v) for v in vs).astype(float))


def _with_non_finite(d):
    # a symmetric matrix with one upper-triangle entry (and its mirror)
    # inf, -inf or nan, or with entries so large that the products overflow
    def build(args):
        vals, (i, j), bad = args
        a = np.array(vals).reshape(d, d)
        a = np.triu(a) + np.triu(a, 1).T
        a[i, j] = a[j, i] = bad
        return a
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    return st.tuples(st.lists(st.floats(-10.0, 10.0), min_size=d * d, max_size=d * d),
                     st.sampled_from(pairs),
                     st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300])).map(build)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_singular(2), _singular(3), _with_non_finite(2), _with_non_finite(3)),
       st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_solve_of_a_zero_or_non_finite_determinant_is_none(a, b):
    with np.errstate(all="ignore"):
        det = reference_det_sym(a)
    assume(det == 0.0 or not np.isfinite(det))
    assert solve_sym(a.tolist(), b[:len(a)]) is None


def test_solve_zero_matrix_is_none():
    assert solve_sym([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0]) is None
    assert solve_sym(np.zeros((3, 3)).tolist(), [1.0, 2.0, 3.0]) is None


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
