import json
import pickle

import numpy as np
import pytest

from seqdopt.config import RunConfig, parse_config, validate_config
from seqdopt.errors import ConfigError, ConfigMismatch
from seqdopt.harness import ReplicationFailure, compare_methods, run_experiment


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
    with pytest.raises(ValueError, match="'sigma2'"):
        validate_config(RunConfig(model="M1", sigma2=None,
                                  true_params=(32.11, 105.65)))
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
    # the interval and the known change point
    with pytest.raises(ConfigError, match="'x0_known'"):
        validate_config(RunConfig(model="M2", x0_known=None, sigma2=0.086,
                                  true_params=(32.11, 105.65)))
    for x_min in (0.0, -1.0):
        with pytest.raises(ConfigError, match="'x_min'"):
            parse_config(model="M1", x_min=x_min)
    with pytest.raises(ConfigError, match="'x_min'"):
        parse_config(model="M3", x_min=150.0, x_max=150.0)


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


def test_stop_indices_collected_with_delta():
    cfg = _small_cfg(delta_stop=1e18, replications=2)
    summary = run_experiment(cfg, workers=1)
    assert summary.stop_indices == [42, 42]


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------

def test_compare_methods_rejects_mismatched_configs():
    a = _small_cfg(method="cm")
    b = _small_cfg(method="pics", seed=78)
    with pytest.raises(ConfigMismatch, match="seed"):
        compare_methods([a, b])
    with pytest.raises(ConfigMismatch):
        compare_methods([a])
    with pytest.raises(ConfigMismatch, match="duplicate"):
        compare_methods([a, a])


def test_compare_methods_report_structure():
    configs = [_small_cfg(method=m) for m in ("cm", "pics")]
    report, summaries = compare_methods(configs, workers=2, eff_target=0.3)
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
    """Row-by-row writer over the records, the layout trajectories.csv keeps."""
    import csv

    model = summary.config.to_model()
    d = model.dim
    xcols = ["x1", "x2"] if model.is_glm else ["x"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "step"] + xcols + ["y"]
                        + [f"theta_hat_{k + 1}" for k in range(d)] + ["det_cum_info"])
        for rep, traj in enumerate(summary.trajectories):
            for rec in traj.records:
                row = [rep, rec.step]
                row += list(rec.x) if model.is_glm else [repr(float(rec.x))]
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
