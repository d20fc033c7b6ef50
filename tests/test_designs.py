import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqdopt import modelspec
from seqdopt.designs import (
    MANDAL_C0,
    MAX_CYCLE,
    BalancedScheduler,
    DesignMeasure,
    balanced_cycle_counts,
    draw_point,
    grid_oracle_glm,
    grid_oracle_three_point,
    grid_oracle_two_point,
    m2_tau,
    mandal_c1,
    mandal_c2,
    optimal_design_m1,
    optimal_design_m2,
    optimal_design_m3,
)
from seqdopt.errors import ConstraintViolated, DegenerateDesign
from seqdopt.linalg import det_sym
from seqdopt.logistic import LEVEL_POINTS
from seqdopt.metrics import design_info

from conftest import (model_spec, reference_optimal_design_m1, reference_optimal_design_m2,
                      reference_optimal_design_m3)

THETA = (32.11, 105.65)
THETA3 = (32.11, 105.65, 86.67)
X0 = 86.67
M1, M2, M3 = (model_spec(name) for name in ("M1", "M2", "M3"))


def test_measure_validation():
    with pytest.raises(ValueError):
        DesignMeasure((1.0, 2.0), (0.6, 0.6))
    with pytest.raises(ValueError):
        DesignMeasure((1.0, 2.0), (-0.1, 1.1))
    with pytest.raises(ValueError):
        DesignMeasure((1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        DesignMeasure((1.0, 2.0, 3.0), (0.5, 0.5))


def test_measure_json_roundtrip():
    import json

    m = optimal_design_m1(M1, THETA)
    doc = json.loads(m.to_json())
    assert doc["weights"] == [0.5, 0.5]
    assert doc["support"][1] == 210.0
    g = mandal_c1((0.1, 0.1, 0.1))
    doc = json.loads(g.to_json())
    assert doc["support"][0] == [1, 1]


# ---------------------------------------------------------------------------
# closed forms: growth models
# ---------------------------------------------------------------------------

def test_m1_design_at_true_parameters():
    m = optimal_design_m1(M1, THETA)
    assert m.weights == (0.5, 0.5)
    assert m.support[0] == pytest.approx(105.65 * 210.0 / (105.65 + 210.0), rel=1e-12)
    assert m.support[0] == pytest.approx(70.29, abs=0.01)
    assert m.support[1] == 210.0


def test_m1_design_clamps_to_x_min():
    m = optimal_design_m1(M1, (1.0, 1e-6))
    assert m.support[0] == M1.x_min


def test_m2_tau_frozen_value():
    assert m2_tau(105.65, X0, 210.0) == pytest.approx(66.67, abs=0.01)


def test_m2_design_at_true_parameters():
    m = optimal_design_m2(M2, THETA)
    assert m.weights == (0.5, 0.5)
    assert m.support[0] == pytest.approx(66.67, abs=0.01)
    assert m.support[1] == 210.0


def test_m2_design_clamps_to_x_min():
    # small a2 drives tau below x_min
    m = optimal_design_m2(M2, (5.0, 0.05))
    assert m.support[0] == M2.x_min


def test_m2_tau_always_interior_for_admissible_inputs():
    # algebraically tau in (0, x0) whenever 0 < x0 < x_max, so the
    # degenerate-denominator guard cannot fire on admissible inputs
    rng = np.random.default_rng(12)
    for _ in range(50):
        a2 = 10.0 ** rng.uniform(-2, 3)
        x0 = rng.uniform(1.0, 209.0)
        tau = m2_tau(a2, x0, 210.0)
        assert 0.0 < tau < x0


def test_m2_degenerate_denominator_guard():
    # only reachable with a change point beyond the interval; the guard is
    # defense against inadmissible inputs
    with pytest.raises(DegenerateDesign):
        m2_tau(1100.0, 300.0, 210.0)


def test_m3_design_at_true_parameters():
    m = optimal_design_m3(M3, THETA3)
    assert m.weights == (1 / 3, 1 / 3, 1 / 3)
    assert m.support[0] == pytest.approx(47.61, abs=0.01)
    assert m.support[1] == X0
    assert m.support[2] == 210.0


def test_m3_first_point_below_change_point():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a2 = rng.uniform(1.0, 500.0)
        x0 = rng.uniform(1.0, 209.0)
        m = optimal_design_m3(M3, (10.0, a2, x0))
        assert m.support[0] < m.support[1]


@st.composite
def _growth_closed_form_inputs(draw):
    """A growth model on 0 < x_min < x_max, narrow intervals included, and a
    theta with rates of either sign and a change point in or outside it."""
    name = draw(st.sampled_from(("M1", "M2", "M3")))
    x_min = draw(st.floats(1e-3, 300.0))
    x_max = x_min + draw(st.one_of(st.floats(0.0, 2e-9), st.floats(0.0, 400.0)))
    assume(x_min < x_max)
    inside = draw(st.integers(0, 3)) > 0
    x0 = draw(st.floats(x_min, x_max) if inside else st.floats(-10.0, 800.0))
    positive = draw(st.integers(0, 3)) > 0
    theta = (draw(st.floats(1e-3 if positive else -5.0, 100.0)),
             draw(st.floats(1e-3 if positive else -10.0, 1e4)))
    if name == "M3":
        theta += (x0,)
    extra = {"x0_known": x0} if name == "M2" else {}
    return model_spec(name, x_min=x_min, x_max=x_max, **extra), theta


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_growth_closed_form_inputs())
def test_growth_closed_forms_match_their_reference_formulas(inputs):
    # the closed forms build their measures with one balanced-measure
    # builder; the reference formulas built each measure by hand
    model, theta = inputs
    new, ref = {"M1": (optimal_design_m1, reference_optimal_design_m1),
                "M2": (optimal_design_m2, reference_optimal_design_m2),
                "M3": (optimal_design_m3, reference_optimal_design_m3)}[model.model]

    def outcome(closed_form):
        try:
            measure = closed_form(model, theta)
        except Exception as exc:
            return type(exc)
        return [v.hex() for v in measure.support + measure.weights]

    assert outcome(new) == outcome(ref)


# ---------------------------------------------------------------------------
# closed forms: factorial logistic
# ---------------------------------------------------------------------------

def test_mandal_c1_zero_beta_uniform():
    m = mandal_c1((0.0, 0.0, 0.0))
    assert np.allclose(m.weights, 0.25)


def test_mandal_c1_at_true_parameters():
    m = mandal_c1((0.7125,) * 3)
    assert m.support == LEVEL_POINTS
    assert m.weights[0] == pytest.approx(0.0992, abs=2e-4)
    assert m.weights[1] == pytest.approx(0.3003, abs=2e-4)
    assert sum(m.weights) == pytest.approx(1.0, abs=1e-12)


def test_mandal_c1_weight_sum_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        b = rng.uniform(-0.83, 0.83)
        m = mandal_c1((b, b, b))
        assert sum(m.weights) == pytest.approx(1.0, abs=1e-12)


def test_mandal_c1_constraint_checks():
    with pytest.raises(ConstraintViolated):
        mandal_c1((0.2, 0.3, 0.2))
    with pytest.raises(ConstraintViolated):
        mandal_c1((MANDAL_C0 + 0.01,) * 3)


def test_mandal_c2_at_true_parameters():
    m = mandal_c2((1.5, 0.5, 0.0))
    assert m.weights[0] == pytest.approx(0.2143, abs=2e-4)
    assert m.weights[0] == m.weights[1]
    assert m.weights[2] == pytest.approx(0.2857, abs=2e-4)
    assert m.weights[2] == m.weights[3]


def test_mandal_c2_sum_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b0 = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        b1 = rng.uniform(0.05, 1.5) * np.sign(b0)
        m = mandal_c2((b0, b1, 0.0))
        assert sum(m.weights) == pytest.approx(1.0, abs=1e-12)


def test_mandal_c2_limit_to_uniform():
    # u -> v as b1 -> 0: proportions approach 1/4
    m = mandal_c2((1.5, 1e-3, 0.0))
    assert np.allclose(m.weights, 0.25, atol=0.01)


def test_mandal_c2_constraint_checks():
    with pytest.raises(ConstraintViolated):
        mandal_c2((1.5, 0.5, 0.2))
    with pytest.raises(ConstraintViolated):
        mandal_c2((1.5, -0.5, 0.0))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_draw_point_single_support():
    m = DesignMeasure((4.2,), (1.0,))
    rng = np.random.default_rng(3)
    assert all(draw_point(m, rng) == 4.2 for _ in range(10))


def test_draw_point_frequencies():
    m = optimal_design_m1(M1, THETA)
    rng = np.random.default_rng(4)
    draws = [draw_point(m, rng) for _ in range(10_000)]
    freq = np.mean([d == m.support[0] for d in draws])
    assert abs(freq - 0.5) < 0.02


def test_draw_point_reproducible():
    m = optimal_design_m3(M3, THETA3)
    a = [draw_point(m, np.random.default_rng(5)) for _ in range(4)]
    b = [draw_point(m, np.random.default_rng(5)) for _ in range(4)]
    assert a == b


def test_balanced_cycle_counts():
    assert balanced_cycle_counts((0.5, 0.5)) == [1, 1]
    assert balanced_cycle_counts((1 / 3, 1 / 3, 1 / 3)) == [1, 1, 1]
    assert balanced_cycle_counts((0.25, 0.5, 0.25)) == [1, 2, 1]
    assert balanced_cycle_counts((0.3, 0.3, 0.4)) == [3, 3, 4]
    assert balanced_cycle_counts((0.0, 0.5, 0.5)) == [0, 1, 1]
    # the irrational Mandal weights at the true values: GLM_C1's
    # (0.0992, 0.3003, 0.3003, 0.3003) and GLM_C2's (0.2143, 0.2143, 0.2857, 0.2857)
    assert balanced_cycle_counts(mandal_c1((0.7125,) * 3).weights) == [1, 3, 3, 3]
    assert balanced_cycle_counts(mandal_c2((1.5, 0.5, 0.0)).weights) == [3, 3, 4, 4]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n_cycle=st.integers(1, MAX_CYCLE), cuts=st.lists(st.integers(0, MAX_CYCLE), max_size=5))
def test_balanced_cycle_counts_returns_grid_weights_in_their_shortest_cycle(n_cycle, cuts):
    # weights k_i / N, zeros allowed, come back exactly as k_i / gcd(k)
    edges = [0, *sorted(min(c, n_cycle) for c in cuts), n_cycle]
    parts = [b - a for a, b in zip(edges, edges[1:])]
    g = math.gcd(*parts)
    assert balanced_cycle_counts([k / n_cycle for k in parts]) == [k // g for k in parts]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6))
def test_balanced_cycle_counts_serves_every_positive_weight(raw):
    weights = [v / sum(raw) for v in raw]
    counts = balanced_cycle_counts(weights)
    assert len(counts) == len(weights)
    assert min(counts) >= 1 and sum(counts) <= MAX_CYCLE


def test_scheduler_cycle_covers_support_exactly_once():
    m = optimal_design_m3(M3, THETA3)
    sched = BalancedScheduler(np.random.default_rng(6))
    for _ in range(10):
        block = [sched.next_point(m) for _ in range(3)]
        assert sorted(block) == sorted(m.support)


def test_scheduler_unbalanced_cycle():
    m = DesignMeasure((1.0, 2.0, 3.0), (0.25, 0.5, 0.25))
    sched = BalancedScheduler(np.random.default_rng(7))
    cycle = [sched.next_point(m) for _ in range(4)]
    assert sorted(cycle) == [1.0, 2.0, 2.0, 3.0]
    counts = {1.0: 0, 2.0: 0, 3.0: 0}
    for _ in range(12):
        for _ in range(4):
            counts[sched.next_point(m)] += 1
    assert counts == {1.0: 12, 2.0: 24, 3.0: 12}


def test_scheduler_updates_support_only_at_cycle_boundary():
    m1 = DesignMeasure((1.0, 2.0), (0.5, 0.5))
    m2 = DesignMeasure((10.0, 20.0), (0.5, 0.5))
    sched = BalancedScheduler(np.random.default_rng(8))
    first = sched.next_point(m1)  # the first call starts a cycle from m1
    assert first in m1.support
    second = sched.next_point(m2)  # mid-cycle: old support must be served
    assert second in m1.support
    third = sched.next_point(m2)  # new cycle: replacement takes effect
    assert third in m2.support


# ---------------------------------------------------------------------------
# grid oracles vs closed forms (fast spot checks; full sweep in acceptance)
# ---------------------------------------------------------------------------

def test_oracle_agrees_with_closed_form_m1():
    model = M1
    theta = np.asarray(model.true_params)
    oracle = grid_oracle_two_point(model, theta, step=0.1)
    closed = optimal_design_m1(model, theta)
    assert abs(oracle.support[0] - closed.support[0]) <= 0.1
    assert abs(oracle.support[1] - closed.support[1]) <= 0.1


def test_oracle_glm_zero_beta_uniform():
    oracle = grid_oracle_glm((0.0, 0.0, 0.0), step=0.005, coarse=0.02)
    assert np.allclose(oracle.weights, 0.25, atol=0.005)


def test_oracle_three_point_agrees_with_closed_form():
    model = M3
    theta = np.asarray(model.true_params)
    oracle = grid_oracle_three_point(model, theta)
    closed = optimal_design_m3(model, theta)
    for a, b in zip(oracle.support, closed.support):
        assert abs(a - b) <= 0.25


@pytest.mark.parametrize("name, x_max", [("M1", 1e6), ("M2", 1e6), ("M3", 1e4)])
def test_a_growth_oracle_on_a_wide_interval_holds_no_more_points_than_at_the_default(
        name, x_max, monkeypatch):
    # each step widens with the interval, so the exhaustive stage, whose
    # pair or triple table grows with its grid, holds no more points than at
    # the default interval (at x_max = 1e6 the unwidened two-point grid held
    # 2e7 points, and its pair table 76 GiB); a refinement box is a fixed
    # number of its steps wide at any interval
    from seqdopt import designs

    sizes, growth_grad = {}, designs.growth_grad

    def recording_grad(model, theta, x):
        sizes.setdefault(model.x_max, []).append(np.size(x))
        return growth_grad(model, theta, x)

    monkeypatch.setattr(designs, "growth_grad", recording_grad)
    for model in (model_spec(name), model_spec(name, x_max=x_max)):
        report = modelspec.oracle_check(model)
        support = report["oracle"]["support"]
        assert model.x_min <= support[0] < support[-1] <= model.x_max
        assert report["oracle_excess"] <= 1e-3   # no grid design beats the closed form
    assert len(sizes[x_max]) == len(sizes[210.0])
    assert sizes[x_max][0] <= sizes[210.0][0]


def test_closed_form_criterion_dominates_oracle_random_parameters():
    # ten random admissible parameter vectors per family
    rng = np.random.default_rng(9)
    checked = {"M1": 0, "M2": 0, "M3": 0}
    while min(checked.values()) < 10:
        name = ("M1", "M2", "M3")[rng.integers(3)]
        if checked[name] >= 10:
            continue
        a1 = rng.uniform(5.0, 80.0)
        a2 = rng.uniform(30.0, 200.0)
        x0 = rng.uniform(40.0, 160.0)
        model = model_spec(name, true_params=((a1, a2, x0) if name == "M3" else (a1, a2)))
        theta = np.asarray(model.true_params)
        try:
            closed = modelspec.closed_form_design(model, theta)
        except DegenerateDesign:
            continue
        if name == "M2" and not model.x_min < closed.support[0] < model.x0_known:
            continue  # closed form derived for an interior lower point
        if name == "M3":
            oracle = grid_oracle_three_point(model, theta, steps=(4.0, 0.5, 0.05))
        else:
            oracle = grid_oracle_two_point(model, theta, step=0.25)
        crit = lambda measure: det_sym(design_info(model, theta, measure))
        assert crit(closed) >= (1.0 - 1e-3) * crit(oracle)
        checked[name] += 1


def test_closed_form_criterion_dominates_oracle_glm():
    rng = np.random.default_rng(10)
    for _ in range(10):
        b = rng.uniform(-0.8, 0.8)
        closed = mandal_c1((b, b, b))
        oracle = grid_oracle_glm((b, b, b), step=0.002, coarse=0.02)
        crit = lambda measure: det_sym(design_info(model_spec("GLM_C1"), (b, b, b), measure))
        assert crit(closed) >= (1.0 - 1e-3) * crit(oracle)
    for _ in range(10):
        b0 = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        b1 = rng.uniform(0.1, 1.5) * np.sign(b0)
        beta = (b0, b1, 0.0)
        closed = mandal_c2(beta)
        oracle = grid_oracle_glm(beta, step=0.002, coarse=0.02)
        crit = lambda measure: det_sym(design_info(model_spec("GLM_C2"), beta, measure))
        assert crit(closed) >= (1.0 - 1e-3) * crit(oracle)


def test_support_continuity_in_theta():
    # plug-in continuity: small parameter perturbations move the support a
    # proportionally small amount
    base3 = np.asarray(THETA3)
    m_base = optimal_design_m3(M3, base3)
    for delta in (1e-4, 1e-3, 1e-2):
        m_pert = optimal_design_m3(M3, base3 * (1.0 + delta))
        moves = np.abs(np.array(m_pert.support) - np.array(m_base.support))
        assert np.all(moves <= 300.0 * delta * np.abs(base3).max() / 32.0)
    base = np.asarray(THETA)
    m_base = optimal_design_m2(M2, base)
    for delta in (1e-4, 1e-3):
        m_pert = optimal_design_m2(M2, base * (1.0 + delta))
        moves = np.abs(np.array(m_pert.support) - np.array(m_base.support))
        assert np.all(moves <= 300.0 * delta * np.abs(base).max() / 32.0)


def test_mandal_c2_extreme_estimates_stay_valid():
    # magnitudes at the edges of the fit's box exp(+/-10): the weights
    # w(b0 +/- b1) underflow, but their ratio is formed from log-weights
    big, tiny = np.exp(10.0), np.exp(-10.0)
    for beta in ((big, big, 0.0), (-big, -tiny, 0.0), (112.5, 0.0016, 0.0),
                 (tiny, tiny, 0.0), (1.5, 1e-17, 0.0)):
        m = mandal_c2(beta)
        assert sum(m.weights) == pytest.approx(1.0, abs=1e-12)
        assert 1.0 / 6.0 - 1e-12 <= m.weights[0] <= 0.25 + 1e-12
        assert m.weights[0] == m.weights[1] and m.weights[2] == m.weights[3]
    assert mandal_c2((big, big, 0.0)).weights[0] == pytest.approx(1.0 / 6.0)
    assert mandal_c2((tiny, tiny, 0.0)).weights[0] == pytest.approx(0.25)


#: admissible plug-in estimates: C1's common coefficient inside |b| < 0.8314
#: (signed zeros included), and C2's matched signs out to the box edges e^+-10
_c1_betas = st.one_of(st.floats(-0.8314, 0.8314, exclude_min=True, exclude_max=True),
                      st.sampled_from([0.0, -0.0])).map(lambda b: (b, b, b))
_c2_magnitudes = st.floats(math.exp(-10.0), math.exp(10.0))
_c2_betas = st.tuples(_c2_magnitudes, _c2_magnitudes, st.sampled_from([0.0, -0.0]),
                      st.sampled_from([1.0, -1.0])).map(lambda v: (v[3] * v[0], v[3] * v[1], v[2]))


def _measure_bits(measure) -> tuple:
    return measure.support, np.array(measure.weights).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_c1_betas.map(lambda b: (mandal_c1, b)), _c2_betas.map(lambda b: (mandal_c2, b))))
def test_mandal_designs_read_arrays_and_tuples_alike(case):
    # the plug-in step passes the fit's ndarray; a tuple or a list of numpy
    # scalars must give the same weights to the bit
    closed_form, beta = case
    expected = _measure_bits(closed_form(tuple(beta)))
    for other in (np.array(beta), list(np.array(beta)), [float(v) for v in beta]):
        assert _measure_bits(closed_form(other)) == expected
