import pickle

import numpy as np
import pytest

from seqdopt import modelspec
from seqdopt.config import parse_config
from seqdopt.designs import MAX_CYCLE, balanced_cycle_counts
from seqdopt.engine import (
    EngineState,
    _cm_select_cells,
    cm_step,
    pics_step,
    run,
    run_static_stage,
    stopping_check,
)
from seqdopt.errors import ConstraintViolated, DegenerateInformation, StepFailed
from seqdopt.fitting import FitResult
from seqdopt.harness import run_experiment
from seqdopt.growth import fisher_info_nlr
from seqdopt.linalg import det_sym
from seqdopt.logistic import LEVEL_POINTS, XXT_CELLS, cell_weights, fisher_from_counts
from seqdopt.modelspec import default_model


def _fresh_state(name="M1", method="pics", n1=40, init="uniform", seed=0):
    model = default_model(name)
    rng = np.random.default_rng(seed)
    return run_static_stage(model, method, n1, init, rng)


# ---------------------------------------------------------------------------
# static stage
# ---------------------------------------------------------------------------

def test_static_stage_uniform_points_in_interval():
    state = _fresh_state("M1", n1=40)
    xs = np.array(state.xs)
    assert xs.size == 40
    assert np.all((xs >= 0.5) & (xs <= 210.0))
    assert np.unique(xs).size == 40  # continuous draws are a.s. distinct


def test_static_stage_four_point_exact_allocation():
    state = _fresh_state("GLM_C1", n1=80, init="four_point")
    assert state.cell_counts.tolist() == [20.0, 20.0, 20.0, 20.0]


def test_static_stage_three_point_support():
    state = _fresh_state("M2", n1=60, init="three_point")
    assert set(state.xs) <= {0.5, 210.0, (0.5 + 210.0) / 2.0}


def test_static_stage_records_estimate_only_on_last_record():
    state = _fresh_state("M1", n1=40)
    assert len(state.thetas) == len(state.dets) == state.step == 40
    assert np.isnan(state.thetas[:-1]).all() and np.isnan(state.dets[:-1]).all()
    assert np.array_equal(state.thetas[-1], state.theta_hat)
    assert state.dets[-1] == pytest.approx(det_sym(state.cum_info))


def test_static_stage_deterministic():
    a = _fresh_state("M1", seed=123)
    b = _fresh_state("M1", seed=123)
    assert a.xs == b.xs and a.ys == b.ys
    assert np.allclose(a.theta_hat, b.theta_hat)


# ---------------------------------------------------------------------------
# criterion-maximizing step
# ---------------------------------------------------------------------------

def test_cm_step_glm_matches_exhaustive_candidate_evaluation():
    state = _fresh_state("GLM_C1", method="cm", n1=80, init="four_point")
    # force gross imbalance: pile extra trials onto cell (+1,+1)
    state.cell_counts = np.array([300.0, 20.0, 20.0, 20.0])
    state.cum_info = fisher_from_counts(state.cell_counts, state.theta_hat)

    w = cell_weights(state.theta_hat)
    vals = {p: det_sym(state.cum_info + w[c] * XXT_CELLS[c])
            for c, p in enumerate(LEVEL_POINTS)}
    chosen = _cm_select_cells(state)
    assert vals[chosen] == max(vals.values())
    assert chosen != (1, 1)  # the saturated cell cannot be the argmax


def test_cm_step_appends_record_and_increases_det():
    state = _fresh_state("M1", method="cm", n1=40)
    theta_before = state.theta_hat.copy()
    det_before = det_sym(state.cum_info)
    cm_step(state)
    assert state.step == 41
    # determinant under the frozen previous estimate can only grow
    xs = np.array(state.xs)
    info = sum(fisher_info_nlr(state.model, theta_before, x) for x in xs)
    assert det_sym(info) >= det_before - 1e-12


def test_cm_step_near_optimal_history_picks_a_support_point():
    model = default_model("M1")
    theta = np.asarray(model.theta_star)
    from seqdopt.designs import optimal_design_m1
    measure = optimal_design_m1(model, theta)
    state = EngineState(model=model, method="cm", n1=40, rng=np.random.default_rng(0))
    state.xs = list(measure.support) * 20
    state.ys = [0.0] * 40
    state.theta_hat = theta
    from seqdopt.growth import cumulative_fisher_nlr
    state.cum_info = cumulative_fisher_nlr(model, theta, np.array(state.xs))
    from seqdopt.engine import _cm_select_interval
    x = _cm_select_interval(state)
    assert min(abs(x - s) for s in measure.support) < 0.5


# ---------------------------------------------------------------------------
# plug-in step
# ---------------------------------------------------------------------------

def test_pics_step_draws_from_closed_form_support():
    model = default_model("M1")
    theta = np.asarray(model.theta_star)
    from seqdopt.designs import optimal_design_m1
    support = optimal_design_m1(model, theta).support
    for seed in range(5):
        state = _fresh_state("M1", method="pics", seed=seed)
        state.theta_hat = theta  # plug in the truth
        pics_step(state)
        x = state.xs[-1]
        assert min(abs(x - s) for s in support) < 1e-9


def test_balanced_pics_cycle_covers_support():
    state = _fresh_state("M3", method="balanced_pics", n1=60, seed=3)
    for _ in range(3):
        pics_step(state)
    block = state.xs[60:63]
    # all three support points of the (fixed-cycle) measure appear once
    assert len(set(np.round(block, 6))) == 3


def test_pics_inadmissible_estimate_fails_the_step(monkeypatch):
    # the exact fits only return admissible estimates (see the property tests
    # in test_fitting.py); an injected inadmissible one is an error, not
    # something to project
    state = _fresh_state("GLM_C1", method="pics", n1=80, init="four_point")
    state.theta_hat = np.array([0.9, 0.9, 0.9])  # outside |b| < 0.8314
    with pytest.raises(ConstraintViolated):
        pics_step(state)
    assert state.step == 80

    from seqdopt import modelspec

    def inadmissible_fit(*args, **kwargs):
        return FitResult(np.array([0.9, 0.9, 0.9]), 0.0, True, 0)

    monkeypatch.setattr(modelspec, "fit", inadmissible_fit)
    cfg = parse_config(model="GLM_C1", method="pics", n1=80, n=120, seed=1)
    with pytest.raises(StepFailed) as info:
        run(cfg)
    assert info.value.step == 81
    assert isinstance(info.value.__cause__, ConstraintViolated)


# ---------------------------------------------------------------------------
# stopping rule
# ---------------------------------------------------------------------------

def test_stopping_never_fires_before_n1_plus_2():
    state = _fresh_state("M1", n1=40, seed=5)
    pics_step(state)  # step 41
    assert stopping_check(state, 1e18) is False
    pics_step(state)  # step 42
    assert stopping_check(state, 1e18) is True


def test_stopping_zero_delta_never_stops():
    cfg = parse_config(model="M1", method="pics", n1=40, n=60, seed=6,
                       delta_stop=0.0)
    traj = run(cfg)
    assert traj.stop_index is None
    assert len(traj) == 60


def test_stopping_huge_delta_stops_immediately():
    cfg = parse_config(model="M1", method="pics", n1=40, n=100, seed=6,
                       delta_stop=1e18)
    traj = run(cfg)
    assert traj.stop_index == 42
    assert len(traj) == 42


def test_stopping_monotone_in_delta():
    # a smaller threshold never stops earlier on the same seeded trajectory
    stops = {}
    for delta in (1e-2, 1e-4):
        cfg = parse_config(model="M1", method="pics", n1=40, n=200, seed=7,
                           delta_stop=delta)
        traj = run(cfg)
        stops[delta] = traj.stop_index or (200 + 1)
    assert stops[1e-4] >= stops[1e-2]


def test_stopping_degenerate_information_raises():
    state = _fresh_state("M1", n1=40)
    pics_step(state)
    pics_step(state)
    state.dets[-2] = 0.0
    with pytest.raises(DegenerateInformation):
        stopping_check(state, 1e-4)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_records_are_dense_and_estimated_after_n1():
    cfg = parse_config(model="M2", method="pics", n1=60, n=80, seed=8,
                       initial_design="three_point")
    traj = run(cfg)
    assert [r.step for r in traj.records] == list(range(1, 81))
    assert all(r.theta_hat is not None for r in traj.records[59:])
    assert all(r.theta_hat is None for r in traj.records[:59])


def test_run_stage1_prefix_identical_across_methods():
    trajs = {}
    for method in ("cm", "pics", "balanced_pics"):
        cfg = parse_config(model="M1", method=method, n1=40, n=44, seed=9)
        trajs[method] = run(cfg)
    ref = trajs["pics"]
    for method in ("cm", "balanced_pics"):
        other = trajs[method]
        for r_ref, r_other in zip(ref.records[:40], other.records[:40]):
            assert r_ref.x == r_other.x
            assert r_ref.y == r_other.y
        assert np.allclose(ref.records[39].theta_hat,
                           other.records[39].theta_hat)


def test_run_reproducible_end_to_end():
    cfg = parse_config(model="M1", method="pics", n1=40, n=100, seed=7)
    a, b = run(cfg), run(cfg)
    assert [r.x for r in a.records] == [r.x for r in b.records]
    assert [r.y for r in a.records] == [r.y for r in b.records]
    assert np.allclose(a.final_theta, b.final_theta)


def test_run_glm_produces_level_points():
    cfg = parse_config(model="GLM_C2", method="cm", n1=80, n=120, seed=10)
    traj = run(cfg)
    assert all(r.x in LEVEL_POINTS for r in traj.records)


def test_trajectory_csv_schema(tmp_path):
    cfg = parse_config(model="M1", method="pics", n1=40, n=50, seed=11)
    run_experiment(cfg, out_dir=str(tmp_path), workers=1)
    lines = (tmp_path / "trajectories.csv").read_text().strip().splitlines()
    assert lines[0] == "replication,step,x,y,theta_hat_1,theta_hat_2,det_cum_info"
    assert len(lines) == 51


def test_trajectory_total_compute_sums_stage2():
    cfg = parse_config(model="M1", method="pics", n1=40, n=50, seed=12)
    traj = run(cfg)
    assert traj.total_compute_ms() == pytest.approx(
        traj.stage1_ms + sum(r.step_ms for r in traj.records[40:]))


def test_det_nondecreasing_under_fixed_theta():
    # rank-one PSD updates can only grow the determinant
    cfg = parse_config(model="M2", method="pics", n1=60, n=120, seed=13,
                       initial_design="three_point")
    traj = run(cfg)
    model = cfg.to_model()
    theta = np.asarray(model.theta_star)
    xs = [r.x for r in traj.records]
    from seqdopt.growth import cumulative_fisher_nlr
    dets = [det_sym(cumulative_fisher_nlr(model, theta, np.array(xs[:i])))
            for i in range(5, len(xs) + 1, 5)]
    assert all(b >= a - 1e-12 for a, b in zip(dets, dets[1:]))


def test_pics_steps_cheaper_than_cm_steps_on_m3():
    # the plug-in step carries no criterion optimization
    step_ms = {}
    for method in ("cm", "pics"):
        cfg = parse_config(model="M3", method=method, n1=60, n=160, seed=14)
        traj = run(cfg)
        step_ms[method] = np.median([r.step_ms for r in traj.records[60:]])
    assert step_ms["pics"] < step_ms["cm"]


def test_run_with_n_equal_n1_is_pure_static():
    # bypasses config validation (which requires n1 < n for experiments):
    # the engine itself degrades gracefully to a static-only run
    from seqdopt.config import RunConfig

    cfg = RunConfig(model="M1", method="pics", n1=40, n=40, seed=15,
                    true_params=(32.11, 105.65), sigma2=0.086)
    traj = run(cfg)
    assert len(traj) == 40
    assert traj.final_theta is not None


def test_growth_step_evaluates_the_data_gradients_only_in_the_refit(monkeypatch):
    # one array gradient per residual evaluation of the Levenberg-Marquardt
    # refits (the start, then each candidate): the step's information comes
    # from the last accepted Jacobian, with no extra pass over the data
    from seqdopt import fitting, growth

    growth_grad, nls_refit = growth.growth_grad, fitting.nls_refit
    array_calls, fits = [0], []

    def counting_grad(model, theta, x):
        array_calls[0] += np.ndim(x) > 0
        return growth_grad(model, theta, x)

    def recording_refit(*args, **kwargs):
        res = nls_refit(*args, **kwargs)
        fits.append((res.iterations, res.converged))  # the cold fit adds to res
        return res

    for module in (growth, fitting):
        monkeypatch.setattr(module, "growth_grad", counting_grad)
    monkeypatch.setattr(fitting, "nls_refit", recording_refit)
    traj = run(parse_config(model="M3", method="pics", n1=60, n=120, seed=3))
    assert len(fits) == len(traj) - traj.n1 + 1   # the cold fit's polish included
    assert array_calls[0] == sum(1 + it - converged for it, converged in fits)


def test_failed_step_raises_typed_error_with_cause(monkeypatch):
    from seqdopt import engine

    original = engine._rebuild_cum_info

    def failing_rebuild(state):
        if len(state.xs) == 43:
            raise FloatingPointError("synthetic")
        original(state)

    monkeypatch.setattr(engine, "_rebuild_cum_info", failing_rebuild)
    cfg = parse_config(model="M1", method="pics", n1=40, n=60, seed=16)
    with pytest.raises(StepFailed) as info:
        run(cfg)
    assert info.value.step == 43
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert str(info.value) == "step 43 failed: FloatingPointError: synthetic"
    # a replication's error can cross a process boundary intact
    assert pickle.loads(pickle.dumps(info.value)).step == 43


@pytest.mark.parametrize("name, n1, n", [("M3", 60, 90), ("GLM_C2", 80, 160)])
def test_trajectory_columns_round_trip(name, n1, n):
    cfg = parse_config(model=name, method="pics", n1=n1, n=n, seed=17)
    traj = run(cfg)
    copy = pickle.loads(pickle.dumps(traj))
    # the pool ships columns only; records are built on demand
    assert "records" not in traj.__dict__ and "records" not in copy.__dict__
    for col in ("x", "y", "theta_hat", "det_cum_info", "step_ms"):
        assert np.array_equal(getattr(copy, col), getattr(traj, col), equal_nan=True)
    assert (copy.n1, copy.stage1_ms, copy.stop_index) == (traj.n1, traj.stage1_ms,
                                                           traj.stop_index)

    records = copy.records
    assert records is copy.records  # built once, then kept
    assert [r.step for r in records] == list(range(1, n + 1))
    for k, r in enumerate(records):
        if name.startswith("GLM"):
            assert r.x == LEVEL_POINTS[traj.x[k]] and isinstance(r.x, tuple)
        else:
            assert r.x == traj.x[k]
        assert r.y == traj.y[k]
        assert r.step_ms == traj.step_ms[k]
        if k < n1 - 1:
            assert r.theta_hat is None and r.det_cum_info is None
        else:
            assert np.array_equal(r.theta_hat, traj.theta_hat[k])
            assert r.det_cum_info == traj.det_cum_info[k]


@pytest.mark.parametrize("method", ["pics", "cm", "balanced_pics"])
@pytest.mark.parametrize("name", ["M1", "M2", "M3"])
def test_edge_configs_run_without_failed_steps(name, method):
    # the smallest static stage validation accepts, high noise, and an M2
    # change point near the lower end of the interval; a failed step raises
    extra = {"x0_known": 5.0} if name == "M2" else {}
    for seed in range(2):
        cfg = parse_config(model=name, method=method, n1=default_model(name).dim + 2,
                           n=20, sigma2=10.0, seed=seed, **extra)
        traj = run(cfg)
        assert len(traj) == 20
        assert np.all(np.isfinite(traj.theta_hat[cfg.n1 - 1:]))


@pytest.mark.parametrize("name", ["GLM_C1", "GLM_C2"])
def test_glm_balanced_cycles_serve_the_apportioned_counts(name):
    # replay the run: each cycle starts from the measure at the estimate of
    # the step before it, and a completed cycle tallies that measure's
    # apportioned counts; a failed step raises StepFailed
    for seed in range(5):
        cfg = parse_config(model=name, method="balanced_pics", n1=8, n=200, seed=seed)
        traj = run(cfg)
        start, cycles = cfg.n1, 0
        while True:
            measure = modelspec.closed_form_design(cfg.to_model(), traj.theta_hat[start - 1])
            assert measure.support == LEVEL_POINTS
            counts = balanced_cycle_counts(measure.weights)
            end = start + sum(counts)
            if end > cfg.n:
                break
            assert np.bincount(traj.x[start:end], minlength=4).tolist() == counts
            start, cycles = end, cycles + 1
        assert cycles >= (cfg.n - cfg.n1) // MAX_CYCLE
