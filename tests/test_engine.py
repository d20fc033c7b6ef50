import dataclasses
import pickle
import sys

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from seqdopt import linalg, logistic, modelspec
from seqdopt.config import METHODS, parse_config
from seqdopt.designs import MAX_CYCLE, DesignMeasure, balanced_cycle_counts, draw_point
from seqdopt.engine import (
    EngineState,
    _cm_select_cells,
    cm_step,
    pics_step,
    run,
    run_static_stage,
    stopping_check,
)
from seqdopt.errors import ConfigError, ConstraintViolated, StepFailed
from seqdopt.fitting import FitResult
from seqdopt.harness import run_experiment
from seqdopt.linalg import det_sym
from seqdopt.logistic import LEVEL_POINTS, XXT_CELLS, cell_weights, fisher_from_counts
from seqdopt.modelspec import MODEL_NAMES

from conftest import (REFERENCE_PRIMITIVES, model_spec, reference_cm_select_cells,
                      reference_cumulative_fisher_nlr, reference_fisher_from_counts)


def _fresh_state(name="M1", method="pics", n1=40, init="uniform", seed=0, **over):
    cfg = parse_config(model=name, method=method, n1=n1, initial_design=init, **over)
    return run_static_stage(cfg, np.random.default_rng(seed))


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
    assert state.table[0] == [20.0, 20.0, 20.0, 20.0]


def test_static_stage_three_point_support():
    state = _fresh_state("M2", n1=60, init="three_point")
    assert set(state.xs) <= {0.5, 210.0, (0.5 + 210.0) / 2.0}


def test_static_stage_records_estimate_only_on_last_record():
    state = _fresh_state("M1", n1=40)
    assert len(state.thetas) == len(state.dets) == state.step == 40
    assert np.isnan(state.thetas[:-1]).all() and np.isnan(state.dets[:-1]).all()
    assert state.thetas[-1] is state.fit.theta
    assert state.dets[-1] == pytest.approx(det_sym(state.cum_info))


def test_static_stage_deterministic():
    a = _fresh_state("M1", seed=123)
    b = _fresh_state("M1", seed=123)
    assert a.xs == b.xs and a.ys == b.ys
    assert np.allclose(a.fit.theta, b.fit.theta)


@pytest.mark.parametrize("name, method, n", [("M3", "cm", 50), ("GLM_C2", "pics", 100)])
def test_each_refit_starts_from_the_previous_estimate(name, method, n, monkeypatch):
    # the fit's estimate is the run's one copy of it: stage 1 fits cold,
    # and every later fit is handed the estimate the one before returned
    calls, original = [], modelspec.fit

    def recording_fit(model, xs, ys, init=None, table=None):
        res = original(model, xs, ys, init, table)
        calls.append((init, res.theta))
        return res

    monkeypatch.setattr(modelspec, "fit", recording_fit)
    cfg = parse_config(model=name, method=method, n=n, seed=2)
    traj = run(cfg)
    assert len(calls) == cfg.n - cfg.n1 + 1
    assert calls[0][0] is None
    for (_, previous), (init, _) in zip(calls, calls[1:]):
        assert init is previous
    assert np.array_equal(traj.theta_hat[cfg.n1 - 1:], [theta for _, theta in calls])


# ---------------------------------------------------------------------------
# criterion-maximizing step
# ---------------------------------------------------------------------------

def test_cm_step_glm_matches_exhaustive_candidate_evaluation():
    state = _fresh_state("GLM_C1", method="cm", n1=80, init="four_point")
    # force gross imbalance: pile extra trials onto cell (+1,+1)
    state.table[0] = [300.0, 20.0, 20.0, 20.0]
    state.cum_info = fisher_from_counts(state.table[0], state.fit.theta)

    w = cell_weights(state.fit.theta)
    vals = {p: det_sym(state.cum_info + w[c] * XXT_CELLS[c])
            for c, p in enumerate(LEVEL_POINTS)}
    chosen = _cm_select_cells(state)
    assert vals[chosen] == max(vals.values())
    assert chosen != (1, 1)  # the saturated cell cannot be the argmax


@st.composite
def _cell_search_states(draw):
    """A GLM_C1- or GLM_C2-shaped estimate and cell counts; half the GLM_C1
    draws have equal counts, where the three cells of equal weight tie."""
    sign = draw(st.sampled_from((-1.0, 1.0)))
    if draw(st.booleans()):
        name, b = "GLM_C1", sign * draw(st.floats(0.0, 0.83))
        theta = (b, b, b)
    else:
        name = "GLM_C2"
        theta = (sign * draw(st.floats(1e-3, 3.0)), sign * draw(st.floats(1e-3, 3.0)), 0.0)
    if name == "GLM_C1" and draw(st.booleans()):
        counts = [float(draw(st.integers(1, 300)))] * 4
    else:
        counts = [float(draw(st.integers(0, 300))) for _ in range(4)]
    return name, np.array(theta), counts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cell_search_states())
@example(("GLM_C1", np.full(3, 0.7125), [20.0] * 4))
def test_cm_cell_search_picks_the_reference_cell(drawn):
    name, theta, counts = drawn
    state = EngineState(model=model_spec(name), rng=np.random.default_rng(0),
                        fit=FitResult(theta, 0.0, True, 0),
                        cum_info=fisher_from_counts(counts, theta))
    assert _cm_select_cells(state) == reference_cm_select_cells(theta, state.cum_info)


def test_cm_step_appends_record_and_increases_det():
    state = _fresh_state("M1", method="cm", n1=40)
    theta_before = state.fit.theta.copy()
    det_before = det_sym(state.cum_info)
    cm_step(state)
    assert state.step == 41
    # determinant under the frozen previous estimate can only grow
    xs = np.array(state.xs)
    model = state.model
    info = sum(model.family.fisher_point(model, theta_before, x) for x in xs)
    assert det_sym(info) >= det_before - 1e-12


def test_cm_step_near_optimal_history_picks_a_support_point():
    model = model_spec("M1")
    theta = np.asarray(model.true_params)
    from seqdopt.designs import optimal_design_m1
    measure = optimal_design_m1(model, theta)
    state = EngineState(model=model, rng=np.random.default_rng(0))
    state.xs = list(measure.support) * 20
    state.ys = [0.0] * 40
    state.fit = FitResult(theta, 0.0, True, 0)
    state.cum_info = reference_cumulative_fisher_nlr(model, theta, np.array(state.xs))
    from seqdopt.engine import _cm_select_interval
    x = _cm_select_interval(state)
    assert min(abs(x - s) for s in measure.support) < 0.5


# ---------------------------------------------------------------------------
# plug-in step
# ---------------------------------------------------------------------------

def test_pics_step_draws_from_closed_form_support():
    model = model_spec("M1")
    theta = np.asarray(model.true_params)
    from seqdopt.designs import optimal_design_m1
    support = optimal_design_m1(model, theta).support
    for seed in range(5):
        state = _fresh_state("M1", method="pics", seed=seed)
        state.fit = dataclasses.replace(state.fit, theta=theta)  # plug in the truth
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
    # outside |b| < 0.8314
    state.fit = dataclasses.replace(state.fit, theta=np.array([0.9, 0.9, 0.9]))
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
    state = _fresh_state("M1", n1=40, seed=5, delta_stop=1e18)
    pics_step(state)  # step 41
    assert stopping_check(state) is False
    pics_step(state)  # step 42
    assert stopping_check(state) is True
    # a run that sets no threshold never stops
    state.model = dataclasses.replace(state.model, delta_stop=None)
    assert stopping_check(state) is False


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


def test_stopping_waits_while_the_previous_determinant_is_not_positive():
    # no relative improvement exists over a singular information, so the
    # rule does not fire, however large delta is
    state = _fresh_state("M1", n1=40, delta_stop=1e18)
    pics_step(state)
    pics_step(state)
    for det_prev in (0.0, -2.6645352591003757e-15, np.nan):
        state.dets[-2] = det_prev
        assert stopping_check(state) is False


def test_stop_rule_lets_glm_runs_pass_a_singular_information():
    # GLM_C2 at n1 = 8 can hold a singular information for its first steps;
    # 6 of these 10 replications used to fail with "determinant 0.0"
    cfg = parse_config(model="GLM_C2", method="pics", n1=8, n=100, seed=0,
                       delta_stop=1e-3, replications=10)
    summary = run_experiment(cfg, workers=1)
    assert summary.failures == [] and len(summary.trajectories) == 10


def test_stop_rule_lets_an_m3_cm_run_pass_a_negative_determinant():
    # the information at step 7 rounds to a determinant of -2.7e-15
    cfg = parse_config(model="M3", method="cm", n1=6, n=36, seed=8811, delta_stop=0.01)
    traj = run(cfg)
    assert traj.det_cum_info[6] < 0.0
    assert len(traj) == (traj.stop_index or cfg.n)


@st.composite
def _stop_rule_configs(draw):
    name = draw(st.sampled_from(MODEL_NAMES))
    dim = model_spec(name).dim
    # small static stages, from dim + 2 up; the four_point design needs 4 | n1
    n1 = (4 * draw(st.integers(2, 5)) if name.startswith("GLM")
          else draw(st.integers(dim + 2, dim + 12)))
    return dict(model=name, method=draw(st.sampled_from(METHODS)), n1=n1,
                n=n1 + draw(st.integers(1, 30)), delta_stop=draw(st.floats(0.0, 1.0)),
                seed=draw(st.integers(0, 2**16)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stop_rule_configs())
def test_a_run_under_the_stop_rule_finishes_or_fails_a_step(kw):
    # the rule only ends a run early: it raises nothing itself
    cfg = parse_config(**kw)
    try:
        traj = run(cfg)
    except StepFailed:
        event("step failed")
        return
    assert len(traj) == (traj.stop_index or cfg.n)
    event("ran to n" if traj.stop_index is None else "stopped")


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


@pytest.mark.parametrize("name, n1, n", [("M1", 40, 50), ("GLM_C2", 80, 90)])
def test_trajectory_total_compute_sums_the_step_times(name, n1, n):
    # the static stage's compute is the time of step n1, the first with an
    # estimate; no step before it has a time
    cfg = parse_config(model=name, method="pics", n1=n1, n=n, seed=12)
    traj = run(cfg)
    assert np.all(traj.step_ms[:cfg.n1 - 1] == 0.0)
    assert traj.step_ms[cfg.n1 - 1] > 0.0 and np.all(traj.step_ms[cfg.n1:] > 0.0)
    assert traj.total_compute_ms() == traj.step_ms.sum()
    assert [r.step_ms for r in traj.records] == traj.step_ms.tolist()


def test_det_nondecreasing_under_fixed_theta():
    # rank-one PSD updates can only grow the determinant
    cfg = parse_config(model="M2", method="pics", n1=60, n=120, seed=13,
                       initial_design="three_point")
    traj = run(cfg)
    model = cfg
    theta = np.asarray(model.true_params)
    xs = [r.x for r in traj.records]
    dets = [det_sym(reference_cumulative_fisher_nlr(model, theta, np.array(xs[:i])))
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


def test_run_config_with_n_equal_n1_is_rejected():
    # a config is checked when it is built, so no run has an empty
    # sequential stage
    from seqdopt.config import RunConfig

    with pytest.raises(ConfigError, match="'n1'"):
        RunConfig(model="M1", n1=40, n=40)


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
    for col in ("x", "y", "theta_hat", "det_cum_info", "step_ms", "final_info"):
        assert np.array_equal(getattr(copy, col), getattr(traj, col), equal_nan=True)
    assert (copy.n1, copy.stop_index) == (traj.n1, traj.stop_index)
    # the model is the run's config, and its pickle carries the fields only:
    # I* and the cell probabilities are rebuilt on use
    assert "i_star" in cfg.__dict__ and copy.model == cfg
    assert set(copy.model.__dict__) == {f.name for f in dataclasses.fields(cfg)}

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


#: (name, method, initial design); the uniform cases keep their ids
EDGE_CASES = [pytest.param(name, method, design, id=f"{name}-{method}"
                           + ("" if design == "uniform" else f"-{design}"))
              for design in ("uniform", "three_point") for name in ("M1", "M2", "M3")
              for method in ("balanced_pics", "cm", "pics")]


@pytest.mark.parametrize("name,method,initial_design", EDGE_CASES)
def test_edge_configs_run_without_failed_steps(name, method, initial_design):
    # the smallest static stage validation accepts, high noise, and an M2
    # change point near the lower end of the interval; a failed step raises.
    # At seeds 6 and 24 the first three_point draws all coincide.
    extra = {"x0_known": 5.0} if name == "M2" else {}
    for seed in (0, 1, 6, 24):
        cfg = parse_config(model=name, method=method, n1=model_spec(name).dim + 2,
                           n=20, sigma2=10.0, seed=seed, initial_design=initial_design,
                           **extra)
        traj = run(cfg)
        assert len(traj) == 20
        assert np.all(np.isfinite(traj.theta_hat[cfg.n1 - 1:]))


def test_narrow_interval_runs_when_every_gradient_underflows():
    # on [0.5, 1.0] a refit can reach an a2 so large that, with a1 on its
    # floor, J^T J underflows to all zeros; the refit then stops there
    # instead of raising (7 of these 15 runs used to fail)
    for method in ("pics", "cm", "balanced_pics"):
        cfg = parse_config(model="M1", method=method, x_min=0.5, x_max=1.0, seed=1,
                           replications=5)
        summary = run_experiment(cfg, workers=1)
        assert summary.failures == []
        assert len(summary.trajectories) == 5


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
            measure = modelspec.closed_form_design(cfg, traj.theta_hat[start - 1])
            assert measure.support == LEVEL_POINTS
            counts = balanced_cycle_counts(measure.weights)
            end = start + sum(counts)
            if end > cfg.n:
                break
            assert np.bincount(traj.x[start:end], minlength=4).tolist() == counts
            start, cycles = end, cycles + 1
        assert cycles >= (cfg.n - cfg.n1) // MAX_CYCLE


@pytest.mark.parametrize("name", ["M1", "M2", "M3"])
def test_three_point_static_design_is_redrawn_only_when_all_points_coincide(name):
    model = parse_config(model=name, n1=model_spec(name).dim + 2,
                         initial_design="three_point")
    n1 = model.n1
    mid = (model.x_min + model.x_max) / 2.0
    xi0 = DesignMeasure((model.x_min, model.x_max, mid), (0.3, 0.3, 0.4))
    redrawn = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        first = [draw_point(xi0, rng) for _ in range(n1)]
        points = model.family.initial_points(model, np.random.default_rng(seed))
        if min(first) < max(first):
            assert points == first
        else:
            redrawn += 1
            assert min(points) < max(points)
    assert redrawn > 0


# ---------------------------------------------------------------------------
# the float primitives against their numpy reference formulas, whole runs
# ---------------------------------------------------------------------------

GUARD_CONFIGS = [
    *(dict(model=m, method=meth, n1=20, n=80)
      for m in ("GLM_C1", "GLM_C2") for meth in ("cm", "pics", "balanced_pics")),
    *(dict(model="M3", method=meth, n1=20, n=40) for meth in ("pics", "cm")),
]


def _trajectory_bytes() -> list:
    out = []
    for kwargs in GUARD_CONFIGS:
        for seed in range(3):
            traj = run(parse_config(seed=seed, **kwargs))
            out.append((kwargs, seed, [a.tobytes() for a in (
                traj.x, traj.y, traj.theta_hat, traj.det_cum_info)]))
    return out


def test_runs_are_byte_identical_under_the_reference_primitives(monkeypatch):
    # every module that imported a primitive by name gets the reference
    # formula in its place: the runs must not change by a single bit
    shipped = {name: getattr(linalg if name == "det_sym" else logistic, name)
               for name in REFERENCE_PRIMITIVES}
    as_shipped = _trajectory_bytes()
    patched = set()
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "seqdopt":
            continue
        for name, reference in REFERENCE_PRIMITIVES.items():
            if getattr(mod, name, None) is shipped[name]:
                monkeypatch.setattr(mod, name, reference)
                patched.add(f"{modname}.{name}")
    assert {"seqdopt.engine.det_sym", "seqdopt.modelspec.det_sym", "seqdopt.metrics.det_sym",
            "seqdopt.logistic.cell_probs", "seqdopt.logistic.cell_weights",
            "seqdopt.logistic.fisher_from_counts"} <= patched
    assert _trajectory_bytes() == as_shipped


# ---------------------------------------------------------------------------
# the trajectory's final information against a rebuild from its points
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["M1", "M2", "M3", "GLM_C1", "GLM_C2"]),
       st.sampled_from(["cm", "pics", "balanced_pics"]), st.integers(0, 2**16))
def test_final_info_is_the_rebuild_at_the_final_estimate_bit_for_bit(name, method, seed):
    # the engine keeps the last cumulative information it built; it must be
    # the information of all points at the final estimate
    cfg = parse_config(model=name, method=method, n=50 if name.startswith("GLM") else 30,
                       n1=8 if name.startswith("GLM") else 6, seed=seed)
    _assert_final_info_is_the_rebuild(cfg, run(cfg))


@pytest.mark.parametrize("name, n1, n", [("M1", 40, 400), ("GLM_C1", 80, 800)])
def test_final_info_of_a_stopped_run_is_the_information_at_the_stop_step(name, n1, n):
    cfg = parse_config(model=name, method="pics", n1=n1, n=n, seed=41, delta_stop=1e-2)
    traj = run(cfg)
    assert traj.stop_index is not None and len(traj) == traj.stop_index < cfg.n
    _assert_final_info_is_the_rebuild(cfg, traj)


def _assert_final_info_is_the_rebuild(cfg, traj):
    if cfg.model.startswith("GLM"):
        rebuilt = reference_fisher_from_counts(np.bincount(traj.x, minlength=4),
                                               traj.final_theta)
    else:
        rebuilt = reference_cumulative_fisher_nlr(cfg, traj.final_theta, traj.x)
    assert traj.final_info.tobytes() == rebuilt.tobytes()
    assert det_sym(traj.final_info) == traj.det_cum_info[-1]
