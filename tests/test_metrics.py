import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdopt.config import parse_config
from seqdopt.engine import Trajectory, run
from seqdopt.errors import DegenerateInformation
from seqdopt.metrics import (
    DensityHistogram,
    EfficiencyCurve,
    allocation_to_csv,
    crossing_step,
    design_info,
    efficiency_to_csv,
    glm_allocation,
    histogram_to_csv,
    normality_diagnostic,
    relative_efficiency,
    sequential_density,
)
from seqdopt.designs import DesignMeasure, draw_point, optimal_design_m1
from seqdopt.linalg import det_sym
from seqdopt.logistic import LEVEL_POINTS, fisher_from_counts
from seqdopt.modelspec import closed_form_design

from conftest import (mode_masses, model_spec, reference_cumulative_fisher_nlr,
                      reference_design_info, reference_fisher_info_glm,
                      reference_fisher_info_nlr)


def test_true_fisher_glm_zero_beta_identity_pattern():
    # hand oracle: X*^T X* = 4 I, weights 1/4, proportions 1/4 -> I* = 0.25 I
    model = model_spec("GLM_C1", true_params=(0.0, 0.0, 0.0))
    i_star = model.i_star
    assert np.allclose(i_star, 0.25 * np.eye(3))


def test_true_fisher_m1_nondegenerate():
    i_star = model_spec("M1").i_star
    assert det_sym(i_star) > 0.0


@pytest.mark.parametrize("name", ["M1", "M2", "M3", "GLM_C1", "GLM_C2"])
def test_true_fisher_matches_monte_carlo(name):
    # oracle: Monte Carlo integration of the single-point information over
    # draws from the optimal design
    model = model_spec(name)
    theta = np.asarray(model.true_params)
    i_star = model.i_star
    measure = closed_form_design(model, theta)
    rng = np.random.default_rng(123)
    total = np.zeros_like(i_star)
    n = 100_000
    idx = rng.choice(len(measure.support), size=n, p=np.asarray(measure.weights))
    counts = np.bincount(idx, minlength=len(measure.support))
    for c, x in zip(counts, measure.support):
        total += c * model.family.fisher_point(model, theta, x)
    mc = total / n
    scale = np.abs(i_star).max()
    assert np.all(np.abs(mc - i_star) <= 0.01 * scale)


def _toy_trajectory(model, xs, theta):
    """Every step from n1 = 2 on estimated at `theta`, recording the
    determinant of the cumulative information there, as the engine does."""
    n1, n = 2, len(xs)
    x = np.asarray(xs, dtype=float)
    thetas = np.full((n, model.dim), np.nan)
    thetas[n1 - 1:] = theta
    dets = np.full(n, np.nan)
    for i in range(n1, n + 1):
        dets[i - 1] = det_sym(reference_cumulative_fisher_nlr(model, theta, x[:i]))
    return Trajectory(model=model, n1=n1, x=x, y=np.zeros(n),
                      theta_hat=thetas, det_cum_info=dets, step_ms=np.zeros(n),
                      final_info=reference_cumulative_fisher_nlr(model, theta, x))


def _recomputed_efficiency(traj, i_star):
    """Oracle: rebuild the averaged information at every step from the
    points so far and the step's own estimate."""
    model = traj.model
    det_star = det_sym(i_star)
    steps = np.arange(traj.n1, len(traj) + 1)
    values = np.empty(steps.size)
    for k, i in enumerate(steps):
        theta_i = traj.theta_hat[i - 1]
        if model.model in ("GLM_C1", "GLM_C2"):
            counts = np.bincount(traj.x[:i], minlength=4)
            info = fisher_from_counts(counts, theta_i) / i
        else:
            info = reference_cumulative_fisher_nlr(model, theta_i, traj.x[:i]) / i
        values[k] = 1.0 - abs(det_sym(info) - det_star) / det_star
    return steps, values


@pytest.mark.parametrize("over", [
    dict(model="M1", n1=40, n=140),
    dict(model="M2", n1=60, n=140, initial_design="three_point"),
    dict(model="M3", n1=60, n=140),
    dict(model="M3", method="cm", n1=60, n=100),
    dict(model="GLM_C1", n1=80, n=400),
    dict(model="GLM_C2", method="cm", n1=80, n=400),
    dict(model="M1", n1=40, n=400, delta_stop=1e-2),
], ids=["M1", "M2", "M3", "M3-cm", "GLM_C1", "GLM_C2-cm", "M1-delta_stop"])
def test_efficiency_from_recorded_dets_matches_full_recompute(over):
    cfg = parse_config(seed=41, **over)
    traj = run(cfg)
    if cfg.delta_stop is not None:
        assert traj.stop_index is not None and len(traj) == traj.stop_index < cfg.n
    curve = relative_efficiency(traj)
    steps, values = _recomputed_efficiency(traj, cfg.i_star)
    assert np.array_equal(curve.steps, steps)
    assert np.max(np.abs(curve.values - values)) <= 1e-12


def test_efficiency_one_when_information_matches():
    model = model_spec("M1")
    theta = np.asarray(model.true_params)
    measure = optimal_design_m1(model, theta)
    # alternate the two support points: the empirical average equals I*
    xs = list(measure.support) * 30
    traj = _toy_trajectory(model, xs, theta)
    curve = relative_efficiency(traj)
    assert curve.values[-1] == pytest.approx(1.0, abs=1e-10)


def test_efficiency_half_when_det_is_half():
    # formula arithmetic on synthetic determinants
    model = model_spec("M1")
    theta = np.asarray(model.true_params)
    i_star = model.i_star
    # scale I* by c so det(c I*) = 0.5 det(I*): c = sqrt(0.5) for d = 2
    # construct a two-point design whose average info is c * I*
    # (not exactly reachable with model gradients, so check the formula
    # directly instead)
    det_star = det_sym(i_star)
    e = 1.0 - abs(0.5 * det_star - det_star) / det_star
    assert e == pytest.approx(0.5)


def test_efficiency_sigma2_invariance_at_formula_level():
    # sigma2 scales both determinants by sigma^(-2d) and cancels
    model_a = model_spec("M1", sigma2=0.086)
    model_b = model_spec("M1", sigma2=4 * 0.086)
    theta = np.asarray(model_a.true_params)
    xs = np.linspace(10.0, 210.0, 40)
    curves = []
    for model in (model_a, model_b):
        traj = _toy_trajectory(model, list(xs), theta)
        curves.append(relative_efficiency(traj))
    assert np.allclose(curves[0].values, curves[1].values, rtol=1e-10)


def test_efficiency_requires_positive_det():
    # infinite noise leaves no information: det(I*) = 0
    model = model_spec("M1", sigma2=math.inf)
    assert det_sym(model.i_star) == 0.0
    traj = _toy_trajectory(model, [10.0, 20.0, 30.0], np.array([32.11, 105.65]))
    with pytest.raises(DegenerateInformation):
        relative_efficiency(traj)


def test_efficiency_rejects_a_nan_determinant():
    # det(I*) = NaN is no positive determinant: it would make every value NaN
    model = model_spec("M1", sigma2=math.nan)
    traj = _toy_trajectory(model, [10.0, 20.0, 30.0], np.array([32.11, 105.65]))
    with pytest.raises(DegenerateInformation, match="nan"):
        relative_efficiency(traj)


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _model_theta_measure(draw):
    """A model, a parameter vector near its truth and a design measure with
    one to four support points of positive integer-ratio weights."""
    name = draw(st.sampled_from(["M1", "M2", "M3", "GLM_C1", "GLM_C2"]))
    model = model_spec(name)
    theta = [v * draw(st.floats(0.5, 1.5)) for v in model.true_params]
    if model.x_min is None:
        points = draw(st.lists(st.sampled_from(LEVEL_POINTS), min_size=1, max_size=4,
                               unique=True))
    else:
        points = draw(st.lists(st.floats(model.x_min, model.x_max), min_size=1,
                               max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 50), min_size=len(points), max_size=len(points)))
    weights = tuple(c / sum(counts) for c in counts)
    return model, theta, DesignMeasure(tuple(points), weights)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_model_theta_measure())
def test_design_info_matches_the_reference_sum_bit_for_bit(case):
    # the one design-information sum, and each entry's single-point
    # information inside it, against the formulas the package used to hold
    model, theta, measure = case
    if model.x_min is None:
        reference_point = lambda x: reference_fisher_info_glm(theta, x)
    else:
        reference_point = lambda x: reference_fisher_info_nlr(model, theta, x)
    for x in measure.support:
        assert _same_bytes(model.family.fisher_point(model, theta, x), reference_point(x))
    assert _same_bytes(design_info(model, theta, measure),
                       reference_design_info(measure, reference_point))


def test_efficiency_glm_matches_direct_recomputation():
    cfg = parse_config(model="GLM_C1", method="pics", n1=80, n=120, seed=4)
    traj = run(cfg)
    model = cfg
    i_star = model.i_star
    curve = relative_efficiency(traj)
    # recompute one step by brute force
    i = 100
    theta_i = traj.records[i - 1].theta_hat
    info = sum(reference_fisher_info_glm(theta_i, r.x) for r in traj.records[:i]) / i
    expected = 1.0 - abs(det_sym(info) - det_sym(i_star)) / det_sym(i_star)
    assert curve.at(i) == pytest.approx(expected, rel=1e-10)


def test_efficiency_nlr_uses_stepwise_estimates():
    cfg = parse_config(model="M1", method="pics", n1=40, n=60, seed=5)
    traj = run(cfg)
    model = cfg
    i_star = model.i_star
    curve = relative_efficiency(traj)
    i = 50
    theta_i = traj.records[i - 1].theta_hat
    xs = np.array([r.x for r in traj.records[:i]])
    info = reference_cumulative_fisher_nlr(model, theta_i, xs) / i
    expected = 1.0 - abs(det_sym(info) - det_sym(i_star)) / det_sym(i_star)
    assert curve.at(i) == pytest.approx(expected, rel=1e-10)
    assert curve.steps[0] == 40 and curve.steps[-1] == 60


def test_efficiency_iid_optimal_draws_approach_one():
    # law of large numbers with the truth plugged in throughout
    model = model_spec("M1")
    theta = np.asarray(model.true_params)
    measure = optimal_design_m1(model, theta)
    rng = np.random.default_rng(11)
    xs = [draw_point(measure, rng) for _ in range(2000)]
    traj = _toy_trajectory(model, xs, theta)
    curve = relative_efficiency(traj)
    assert curve.values[-1] > 0.95


def test_efficiency_curve_at_a_step_off_the_curve_raises():
    curve = EfficiencyCurve(np.array([40, 41, 42]), np.array([0.2, 0.6, 0.8]))
    assert curve.at(41) == 0.6
    for step in (39, 43):
        with pytest.raises(KeyError, match=f"step {step} not on the curve"):
            curve.at(step)


def test_crossing_step():
    m = EfficiencyCurve(np.array([1, 2, 3]), np.array([0.2, 0.6, 0.8]))
    assert crossing_step(m, 0.6) == 2
    assert crossing_step(m, 0.95) is None


def test_density_single_point_single_bin():
    model = model_spec("M1")
    traj = _toy_trajectory(model, [100.0] * 50, np.asarray(model.true_params))
    hist = sequential_density([traj], bins=100)
    assert hist.mass.sum() == pytest.approx(1.0)
    assert np.count_nonzero(hist.mass) == 1


def test_density_masses_sum_to_one():
    cfg = parse_config(model="M3", method="pics", n1=60, n=90, seed=6)
    trajs = [run(cfg)]
    hist = sequential_density(trajs, bins=100)
    assert hist.mass.sum() == pytest.approx(1.0)
    assert hist.edges[0] == 0.5 and hist.edges[-1] == 210.0


def test_density_mass_near_helper():
    edges = np.linspace(0.0, 10.0, 11)
    mass = np.zeros(10)
    mass[4] = 0.6
    mass[5] = 0.4
    hist = DensityHistogram(edges=edges, mass=mass)
    assert hist.mass_near(4.7, halfwidth_bins=2) == pytest.approx(1.0)
    assert hist.mass_near(0.5, halfwidth_bins=1) == 0.0


def test_density_mode_masses_partition():
    edges = np.linspace(0.0, 10.0, 11)
    mass = np.full(10, 0.1)
    hist = DensityHistogram(edges=edges, mass=mass)
    modes = mode_masses(hist, [1.0, 9.0])  # split halfway at 5.0
    assert modes.tolist() == pytest.approx([0.5, 0.5])
    assert modes.sum() == pytest.approx(hist.mass.sum())
    skew = mode_masses(hist, [1.0, 3.0])
    assert skew[0] == pytest.approx(0.2)  # bins centered below 2.0


def test_glm_allocation_pools_stage2_only():
    model = model_spec("GLM_C1")
    # cells (1, 1), (1, 1), (-1, -1), (-1, 1)
    thetas = np.zeros((4, 3))
    thetas[0] = np.nan
    traj = Trajectory(model=model, n1=2, x=np.array([0, 0, 3, 2]),
                      y=np.array([1.0, 0.0, 1.0, 1.0]), theta_hat=thetas,
                      det_cum_info=np.array([np.nan, 1.0, 1.0, 1.0]),
                      step_ms=np.zeros(4), final_info=np.eye(3))
    alloc = glm_allocation([traj])
    assert alloc.tolist() == [0.0, 0.0, 0.5, 0.5]


def test_normality_diagnostic_calibrated_on_synthetic_normals():
    # feed exact standard normal z through identity information
    rng = np.random.default_rng(21)
    d = 2
    theta_star = np.zeros(d)
    thetas = rng.normal(size=(200, d))
    infos = [np.eye(d)] * 200
    diag = normality_diagnostic(thetas, theta_star, infos)
    assert np.all(np.abs(diag["mean"]) < 0.2)
    assert np.all((np.diag(diag["cov"]) > 0.8) & (np.diag(diag["cov"]) < 1.2))


def test_normality_diagnostic_whitens_correlated_estimates():
    # estimates drawn with covariance M^-1 must whiten to identity
    rng = np.random.default_rng(22)
    m = np.array([[4.0, 1.0], [1.0, 2.0]])
    cov = np.linalg.inv(m)
    chol = np.linalg.cholesky(cov)
    thetas = (chol @ rng.normal(size=(2, 500))).T
    diag = normality_diagnostic(thetas, np.zeros(2), [m] * 500)
    assert np.all(np.abs(diag["mean"]) < 0.2)
    assert np.all(np.abs(diag["cov"] - np.eye(2)) < 0.2)


def _csv_module_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_small_csv_writers_match_the_csv_module(tmp_path):
    values = np.array([-0.25, 0.1, 1.0 / 3.0, 1e-300])
    curve = EfficiencyCurve(steps=np.arange(5, 9), values=values)
    efficiency_to_csv(curve, tmp_path / "e.csv")
    assert (tmp_path / "e.csv").read_bytes() == _csv_module_bytes(
        tmp_path / "e_ref.csv", ["step", "value"], [[5, -0.25], [6, 0.1], [7, 1.0 / 3.0],
                                                    [8, 1e-300]])
    allocation_to_csv(values, tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_bytes() == _csv_module_bytes(
        tmp_path / "a_ref.csv", ["x1", "x2", "proportion"],
        [[1, 1, -0.25], [1, -1, 0.1], [-1, 1, 1.0 / 3.0], [-1, -1, 1e-300]])
    hist = DensityHistogram(edges=np.array([0.5, 70.0, 140.25, 210.0]), mass=values[:3])
    histogram_to_csv(hist, tmp_path / "h.csv")
    assert (tmp_path / "h.csv").read_bytes() == _csv_module_bytes(
        tmp_path / "h_ref.csv", ["bin_left", "bin_right", "mass"],
        [[0.5, 70.0, -0.25], [70.0, 140.25, 0.1], [140.25, 210.0, 1.0 / 3.0]])
