import json
import math
import pickle
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from seqdopt.config import METHODS, RunConfig, parse_config
from seqdopt.engine import run
from seqdopt.errors import ConfigError, StepFailed
from seqdopt.harness import ReplicationFailure, compare_methods, run_experiment
from seqdopt.metrics import relative_efficiency
from seqdopt.modelspec import MODEL_NAMES


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_defaults_for_each_family():
    cfg = parse_config(model="M1")
    assert (cfg.n1, cfg.n) == (40, 100)
    assert cfg.initial_design == "uniform"
    assert cfg.true_params == (32.11, 105.65)
    assert cfg.sigma2 == 0.086
    assert cfg.method == "pics"

    cfg = parse_config(model="GLM_C2")
    assert (cfg.n1, cfg.n) == (80, 800)
    assert cfg.initial_design == "four_point"
    assert cfg.true_params == (1.5, 0.5, 0.0)

    cfg = parse_config(model="M2")
    assert cfg.x0_known == 86.67


def test_validation_errors_name_the_field():
    with pytest.raises(ValueError, match="'n1'"):
        parse_config(model="M1", n1=100, n=100)
    with pytest.raises(ValueError, match="'n1'"):
        parse_config(model="GLM_C1", n1=81, n=800)
    with pytest.raises(ValueError, match="'model'"):
        parse_config(model="M9")
    with pytest.raises(ValueError, match="'initial_design'"):
        parse_config(model="M1", initial_design="four_point")
    with pytest.raises(ValueError, match="'initial_design'"):
        parse_config(model="GLM_C1", initial_design="uniform")
    # None is the model's default, the one the table holds
    assert RunConfig(model="M1", sigma2=None, true_params=(32.11, 105.65)).sigma2 == 0.086
    with pytest.raises(ValueError, match="'true_params'"):
        parse_config(model="GLM_C1", true_params=(0.9, 0.9, 0.9))
    with pytest.raises(ValueError, match="'true_params'"):
        parse_config(model="GLM_C2", true_params=(1.5, -0.5, 0.0))
    with pytest.raises(ValueError, match="'replications'"):
        parse_config(model="M1", replications=0)
    with pytest.raises(ValueError, match="'delta_stop'"):
        parse_config(model="M1", delta_stop=-1.0)
    with pytest.raises(ValueError, match="config field 'method'"):
        parse_config(model="GLM_C1", method="bogus")
    for name in ("GLM_C1", "GLM_C2"):   # every model takes every method
        assert parse_config(model=name, method="balanced_pics").method == "balanced_pics"
    with pytest.raises(ValueError, match="unknown config fields"):
        parse_config(model="M1", bogus=3)
    # fields a model does not take are rejected, not silently dropped
    for name in ("M1", "M3"):
        with pytest.raises(ConfigError, match="'x0_known'"):
            parse_config(model=name, x0_known=50.0)
    for name in ("GLM_C1", "GLM_C2"):
        with pytest.raises(ConfigError, match="'sigma2'"):
            parse_config(model=name, sigma2=0.086)
    # M2's closed form squares the known change point: one whose square
    # overflows is rejected by name, from the first double past the largest
    # square a double holds
    edge = math.sqrt(sys.float_info.max)
    for x0 in (1e155, math.nextafter(edge, math.inf)):
        with pytest.raises(ConfigError, match="'x0_known': .* too large to square"):
            parse_config(model="M2", x_max=1e160, x0_known=x0)
    with pytest.raises(ConfigError, match="'true_params': no closed-form design"):
        parse_config(model="M2", x_max=1e160, x0_known=edge)
    for name, field in (("GLM_C1", "x_min"), ("GLM_C2", "x_max")):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            parse_config(model=name, **{field: 5.0})
    for name in ("M1", "M2", "M3"):   # the growth entry's interval
        cfg = parse_config(model=name)
        assert (cfg.x_min, cfg.x_max) == (0.5, 210.0)
    assert parse_config(model="GLM_C1").x_min is None
    # the interval and the known change point
    assert RunConfig(model="M2", x0_known=None, sigma2=0.086,
                     true_params=(32.11, 105.65)).x0_known == 86.67
    for x_min in (0.0, -1.0):
        with pytest.raises(ConfigError, match="'x_min'"):
            parse_config(model="M1", x_min=x_min)
    with pytest.raises(ConfigError, match="'x_min'"):
        parse_config(model="M3", x_min=150.0, x_max=150.0)
    # a config built from another is checked as it is built
    with pytest.raises(ConfigError, match="'x_min'"):
        replace(parse_config(model="M1"), x_min=0.0)


def test_parse_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "M2", "method": "cm", "n1": 60,
                                "n": 200, "initial_design": "three_point",
                                "seed": 5}))
    cfg = parse_config(str(path))
    assert cfg.model == "M2" and cfg.method == "cm" and cfg.seed == 5
    # keyword overrides beat file values
    cfg = parse_config(str(path), seed=9)
    assert cfg.seed == 9
    # null, like an omitted field, is the model's default
    path.write_text(json.dumps({"model": "M1", "sigma2": None}))
    assert parse_config(str(path)).sigma2 == 0.086


def test_run_config_is_complete_when_built():
    # built directly, not through parse_config: the table fills every field
    cfg = RunConfig(model="GLM_C1", true_params=[0.7125] * 3)
    assert (cfg.n1, cfg.n, cfg.initial_design) == (80, 800, "four_point")
    assert cfg.true_params == (0.7125,) * 3
    assert cfg == RunConfig(model="GLM_C1")
    traj = run(RunConfig(model="M1", n1=40, n=50, true_params=(32.11, 105.65),
                         sigma2=0.086))
    assert len(traj) == 50
    assert (traj.model.x_min, traj.model.x_max) == (0.5, 210.0)


#: each field omitted, or drawn from a range that straddles its rule
_FIELDS = {
    "method": st.sampled_from(METHODS + ("bogus",)),
    "n1": st.integers(0, 60),
    "n": st.integers(0, 80),
    "initial_design": st.sampled_from(("uniform", "three_point", "four_point")),
    "sigma2": st.floats(-1.0, 10.0),
    "x_min": st.floats(-1.0, 300.0),
    "x_max": st.floats(0.0, 400.0),
    "x0_known": st.floats(0.0, 400.0),
    # growth (a1, a2) and (a1, a2, x0), and the GLM_C1 and GLM_C2 shapes
    "true_params": st.one_of(
        st.tuples(st.floats(-5.0, 60.0), st.floats(-50.0, 400.0)),
        st.tuples(st.floats(-5.0, 60.0), st.floats(-50.0, 400.0), st.floats(-10.0, 400.0)),
        st.floats(-1.5, 1.5).map(lambda b: (b, b, b)),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.just(0.0)),
    ),
}


@st.composite
def _config_fields(draw):
    kw = {"model": draw(st.sampled_from(MODEL_NAMES)), "seed": draw(st.integers(0, 999))}
    for name, values in _FIELDS.items():
        if draw(st.booleans()):
            kw[name] = draw(values)
    return kw


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_config_fields())
def test_a_config_either_runs_or_is_rejected_naming_the_field(kw):
    try:
        cfg = RunConfig(**kw)
    except ConfigError as exc:
        assert "config field '" in str(exc)
        event("rejected")
        return
    try:
        traj = run(replace(cfg, n=cfg.n1 + 2))
    except StepFailed:
        event("step failed")
        return
    assert len(traj) == cfg.n1 + 2
    event("ran")


@pytest.mark.parametrize("kw, field", [
    (dict(model="M1", n1=40.5, n=100), "n1"),
    (dict(model="M1", n=100.5), "n"),
    (dict(model="GLM_C1", n1=8.0), "n1"),
    (dict(model="M1", replications=True), "replications"),
    (dict(model="M1", replications=2.5), "replications"),
    (dict(model="M1", seed=1.5), "seed"),
    (dict(model="M1", seed=-1), "seed"),
    (dict(model="M1", sigma2="0.1"), "sigma2"),
    (dict(model="M2", x0_known="80"), "x0_known"),
    (dict(model="M1", delta_stop=float("nan")), "delta_stop"),
    (dict(model="M1", n=45, true_params=("32", 100.0)), "true_params"),
    (dict(model="M1", true_params=5), "true_params"),
    (dict(model="M1", true_params=(True, 100.0)), "true_params"),
    (dict(model="M1", true_params=(math.inf, 100.0)), "true_params"),
    (dict(model="M3", true_params=(32.11, math.nan, 86.67)), "true_params"),
    (dict(model="M1", x_max=math.inf), "x_max"),
    (dict(model="M1", x_max=10**400), "x_max"),
    (dict(model="M1", sigma2=10**400), "sigma2"),
    (dict(model="GLM_C1", true_params=(10**400,) * 3), "true_params"),
], ids=["n1-float", "n-float", "GLM-n1-float", "replications-bool", "replications-float",
        "seed-float", "seed-negative", "sigma2-str", "x0_known-str", "delta_stop-nan",
        "true_params-str", "true_params-int", "true_params-bool", "true_params-inf",
        "M3-true_params-nan", "x_max-inf", "x_max-int-overflow", "sigma2-int-overflow",
        "GLM-true_params-int-overflow"])
def test_a_count_seed_or_real_field_of_the_wrong_kind_is_rejected(kw, field):
    # each was accepted at first and then failed every replication outside a
    # step, raised a TypeError or an OverflowError while being checked, ran
    # with a string true value, or was blamed on sigma2
    with pytest.raises(ConfigError, match=f"config field '{field}'"):
        parse_config(**kw)


def test_numpy_numbers_are_stored_as_python_numbers(tmp_path):
    # summary.json holds the config, and json cannot write numpy scalars
    cfg = parse_config(model="M1", n1=np.int64(40), n=np.int64(45), seed=np.int64(3),
                       sigma2=np.float32(0.5), true_params=(np.int64(32), np.float32(105.65)))
    assert [type(v) for v in (cfg.n1, cfg.n, cfg.seed, cfg.sigma2)] == [int, int, int, float]
    assert [type(v) for v in cfg.true_params] == [float, float]
    run_experiment(cfg, out_dir=str(tmp_path), workers=1)
    config = json.loads((tmp_path / "summary.json").read_text())["config"]
    assert config["n"] == 45
    assert config["true_params"] == [32.0, float(np.float32(105.65))]
    # a Python int or float is kept as given
    assert parse_config(model="M1", sigma2=1).sigma2 == 1
    assert type(parse_config(model="M1", sigma2=1).sigma2) is int


@pytest.mark.parametrize("kw, field", [
    (dict(model="M1", sigma2=3.883911975738208e-179, n=45), "sigma2"),
    (dict(model="M3", sigma2=1e-104, n1=60, n=200), "sigma2"),
    (dict(model="M1", sigma2=1e300), "sigma2"),
    (dict(model="GLM_C2", true_params=(500.0, 500.0, 0.0)), "true_params"),
], ids=["M1-tiny-sigma2", "M3-tiny-sigma2", "M1-huge-sigma2", "GLM_C2-saturated"])
def test_a_config_with_degenerate_reference_information_is_rejected(kw, field):
    # each of these ran at the parent: the first two recorded NaN or
    # infinite determinants, the last two raised at aggregation on det(I*) = 0
    with pytest.raises(ConfigError, match=f"config field '{field}': .*det"):
        RunConfig(**kw)


@pytest.mark.parametrize("model, n1, n", [("M1", 40, 100), ("M3", 60, 200)])
def test_an_accepted_sigma2_records_finite_determinants(model, n1, n):
    # along a log grid of sigma2 the rule on det(n I*) keeps exactly the
    # runs whose recorded determinants are all finite
    for exponent in range(-160, -63, 8):
        try:
            cfg = RunConfig(model=model, n1=n1, n=n, sigma2=10.0 ** exponent)
        except ConfigError as exc:
            assert "config field 'sigma2'" in str(exc)
            continue
        assert np.isfinite(run(cfg).det_cum_info[n1 - 1:]).all(), exponent


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------

def _small_cfg(**over):
    base = dict(model="M1", method="pics", n1=40, n=60, seed=77, replications=3)
    base.update(over)
    return parse_config(**base)


def test_single_replication_summary_matches_trajectory():
    cfg = _small_cfg(replications=1)
    summary = run_experiment(cfg, workers=1)
    assert len(summary.trajectories) == 1
    traj = summary.trajectories[0]
    assert summary.median_total_ms == pytest.approx(traj.total_compute_ms())
    assert np.allclose(summary.final_theta_mean, traj.final_theta)
    assert np.allclose(summary.final_theta_cov, 0.0)


def test_worker_count_does_not_change_results():
    cfg = _small_cfg()
    a = run_experiment(cfg, workers=1)
    b = run_experiment(cfg, workers=2)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert [r.x for r in ta.records] == [r.x for r in tb.records]
        assert [r.y for r in ta.records] == [r.y for r in tb.records]
    assert np.allclose(a.mean_curve.values, b.mean_curve.values)


def test_deterministic_output_files(tmp_path):
    cfg = _small_cfg()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=str(out_a), workers=2)
    run_experiment(cfg, out_dir=str(out_b), workers=1)
    deterministic = ["trajectories.csv", "mean_efficiency.csv", "density.csv",
                     "summary.json"]
    for name in deterministic:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / "timing.json").exists()


def test_glm_outputs_allocation_file(tmp_path):
    cfg = parse_config(model="GLM_C1", method="pics", n1=80, n=120, seed=3,
                       replications=2)
    summary = run_experiment(cfg, out_dir=str(tmp_path), workers=1)
    lines = (tmp_path / "allocation.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,x2,proportion"
    assert len(lines) == 5
    assert summary.allocation.sum() == pytest.approx(1.0)
    assert not (tmp_path / "density.csv").exists()


def test_failure_budget_enforced(monkeypatch):
    import seqdopt.harness as harness_mod

    calls = {"n": 0}
    orig = harness_mod.run

    def flaky_run(config, rng=None):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise RuntimeError("boom")
        return orig(config, rng=rng)

    monkeypatch.setattr(harness_mod, "run", flaky_run)
    cfg = _small_cfg(replications=4)
    with pytest.raises(RuntimeError, match="replications failed"):
        run_experiment(cfg, workers=1)


def test_failures_recorded_when_under_budget(monkeypatch, tmp_path):
    import seqdopt.harness as harness_mod

    orig = harness_mod.run
    calls = {"n": 0}

    def failing_third(config, rng=None):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ValueError("synthetic failure")
        return orig(config, rng=rng)

    monkeypatch.setattr(harness_mod, "run", failing_third)
    cfg = _small_cfg(replications=30)
    summary = run_experiment(cfg, out_dir=str(tmp_path), workers=1)
    assert len(summary.trajectories) == 29
    # outside a sequential step the failure has no step, and its cause is
    # the error itself
    assert summary.failures == [ReplicationFailure(
        replication=2, seed=cfg.seed + 2, step=None, cause="ValueError",
        message="synthetic failure")]
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["failures"] == [{"replication": 2, "seed": cfg.seed + 2, "step": None,
                                "cause": "ValueError", "message": "synthetic failure"}]


def test_failed_step_recorded_with_step_and_cause(monkeypatch):
    from seqdopt import engine

    original = engine._rebuild_cum_info

    def failing_rebuild(state):
        # only the replication seeded base + 1 draws this first point
        if len(state.xs) == 45 and state.xs[0] == first_point:
            raise FloatingPointError("synthetic")
        original(state)

    cfg = _small_cfg(replications=12)
    first_point = engine.run(cfg, rng=np.random.default_rng(cfg.seed + 1)).x[0]
    monkeypatch.setattr(engine, "_rebuild_cum_info", failing_rebuild)
    summary = run_experiment(cfg, workers=1)
    assert summary.failures == [ReplicationFailure(
        replication=1, seed=cfg.seed + 1, step=45, cause="FloatingPointError",
        message="synthetic")]
    assert len(summary.trajectories) == 11
    # a StepFailed loses its cause when pickled, so the record is built where
    # the replication ran, and it crosses a process boundary intact
    assert pickle.loads(pickle.dumps(summary.failures)) == summary.failures


def test_a_delta_stop_study_averages_its_curves_over_the_shortest_run():
    # the runs stop at different steps; the mean curve covers the steps of
    # the shortest, and is the mean of the curves cut there, bit for bit
    cfg = parse_config(model="M1", method="pics", n1=40, n=200, seed=3, replications=4,
                       delta_stop=1e-2)
    summary = run_experiment(cfg, workers=1)
    curves = [relative_efficiency(t, cfg.i_star) for t in summary.trajectories]
    lengths = [len(c.steps) for c in curves]
    assert len(set(lengths)) > 1
    k = min(lengths)
    assert np.array_equal(summary.mean_curve.steps, curves[0].steps[:k])
    assert np.array_equal(summary.mean_curve.values,
                          np.mean([c.values[:k] for c in curves], axis=0))


def test_stop_indices_collected_with_delta():
    cfg = _small_cfg(delta_stop=1e18, replications=2)
    summary = run_experiment(cfg, workers=1)
    assert summary.stop_indices == [42, 42]


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------

def test_compare_methods_rejects_too_few_or_repeated_methods():
    cfg = _small_cfg()
    for methods in ([], ["cm"], ["cm", "cm"], ["pics", "cm", "pics"], ["cm", "bogus"]):
        with pytest.raises(ConfigError, match="'method'"):
            compare_methods(cfg, methods)


def test_compare_methods_report_structure():
    report, summaries = compare_methods(_small_cfg(), ("cm", "pics"), workers=2,
                                        eff_target=0.3)
    assert set(summaries) == {"cm", "pics"}
    for m in ("cm", "pics"):
        assert "median_total_ms" in report[m]
        assert "final_mean_efficiency" in report[m]
        assert "crossing_step" in report[m]
    assert report["efficiency_target"] == 0.3


def test_glm_c2_small_static_stage_completes_every_replication():
    # with n1 = 8 the stage-1 tables are often separated, which puts the
    # exact fit on the edge of its magnitude box; the plug-in design must
    # still evaluate there
    cfg = parse_config(model="GLM_C2", method="pics", n1=8, n=200,
                       seed=20240, replications=30)
    summary = run_experiment(cfg, workers=1)
    assert summary.failures == []
    assert len(summary.trajectories) == 30


def _reference_trajectories_csv(summary, path):
    """Row-by-row writer over the records, the layout trajectories.csv keeps:
    each row labelled with its replication's index, failed ones skipped."""
    import csv

    model = summary.config
    d = model.dim
    is_glm = model.model in ("GLM_C1", "GLM_C2")
    xcols = ["x1", "x2"] if is_glm else ["x"]
    failed = [f.replication for f in summary.failures]
    survivors = [r for r in range(model.replications) if r not in failed]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "step"] + xcols + ["y"]
                        + [f"theta_hat_{k + 1}" for k in range(d)] + ["det_cum_info"])
        for rep, traj in zip(survivors, summary.trajectories):
            for rec in traj.records:
                row = [rep, rec.step]
                row += list(rec.x) if is_glm else [repr(float(rec.x))]
                row.append(repr(float(rec.y)))
                if rec.theta_hat is None:
                    row += [""] * (d + 1)
                else:
                    row += [repr(float(v)) for v in rec.theta_hat]
                    row.append(repr(float(rec.det_cum_info)))
                writer.writerow(row)


@pytest.mark.parametrize("over", [
    dict(model="M3", method="cm", n1=60, n=90, replications=2),
    dict(model="GLM_C2", method="pics", n1=80, n=200, replications=2),
], ids=["M3-cm", "GLM_C2-pics"])
def test_trajectories_csv_matches_row_by_row_writer(tmp_path, over):
    cfg = parse_config(seed=31, **over)
    summary = run_experiment(cfg, out_dir=str(tmp_path), workers=1)
    ref = tmp_path / "reference.csv"
    _reference_trajectories_csv(summary, ref)
    assert (tmp_path / "trajectories.csv").read_bytes() == ref.read_bytes()


def test_trajectories_csv_labels_rows_with_the_replication_index(monkeypatch, tmp_path):
    # replication 2 fails: replication 3's rows say 3, the index its seed
    # seed + 3 and summary.json's failures use, not its place among the
    # trajectories that ran
    import seqdopt.harness as harness_mod

    orig = harness_mod.run

    def failing_second(config, rng=None):
        if rng.bit_generator.seed_seq.entropy == config.seed + 2:
            raise ValueError("synthetic failure")
        return orig(config, rng=rng)

    monkeypatch.setattr(harness_mod, "run", failing_second)
    cfg = _small_cfg(replications=11, n=45)
    summary = run_experiment(cfg, out_dir=str(tmp_path), workers=1)
    assert [f.replication for f in summary.failures] == [2]
    reps = [line.split(",", 1)[0]
            for line in (tmp_path / "trajectories.csv").read_text().splitlines()[1:]]
    assert list(dict.fromkeys(reps)) == ["0", "1", *map(str, range(3, 11))]
    assert reps.count("3") == cfg.n
    serial = run(cfg, rng=np.random.default_rng(cfg.seed + 3))
    assert np.array_equal(summary.trajectories[2].y, serial.y)
    ref = tmp_path / "reference.csv"
    _reference_trajectories_csv(summary, ref)
    assert (tmp_path / "trajectories.csv").read_bytes() == ref.read_bytes()
