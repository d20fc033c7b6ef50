import json

import numpy as np
import pytest

from seqdopt.cli import main


def test_design_subcommand_prints_closed_form(capsys):
    assert main(["design", "--model", "M1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"] == [0.5, 0.5]
    assert doc["support"][0] == pytest.approx(70.288, abs=0.01)


def test_design_subcommand_custom_theta(capsys):
    assert main(["design", "--model", "GLM_C1", "--theta", "0,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.allclose(doc["weights"], 0.25)


def test_oracle_subcommand_reports_small_gap(capsys):
    assert main(["oracle", "--model", "M2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_excess"] <= 1e-3
    assert doc["closed_form"]["support"][0] == pytest.approx(66.67, abs=0.01)


def test_run_subcommand_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main(["run", "--model", "M1", "--method", "pics", "--n1", "40",
               "--n", "60", "--seed", "5", "--reps", "2",
               "--out-dir", str(out), "--workers", "1"])
    assert rc == 0
    for name in ("trajectories.csv", "mean_efficiency.csv", "density.csv",
                 "summary.json", "timing.json"):
        assert (out / name).exists()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["model"] == "M1"
    assert doc["replications_succeeded"] == 2


def test_run_subcommand_byte_identical_reruns(tmp_path):
    args = ["run", "--model", "GLM_C1", "--n1", "80", "--n", "110",
            "--seed", "9", "--reps", "2", "--workers", "1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    for name in ("trajectories.csv", "mean_efficiency.csv", "allocation.csv",
                 "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_requires_seed_reps_outdir():
    with pytest.raises(SystemExit):
        main(["run", "--model", "M1"])


def test_compare_subcommand(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["compare", "--model", "M1", "--n1", "40", "--n", "60",
               "--seed", "4", "--reps", "2", "--workers", "1",
               "--methods", "cm,pics", "--out", str(report_path)])
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert "cm" in doc and "pics" in doc
    assert doc["efficiency_target"] == 0.6


def test_config_file_plus_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "M1", "n1": 40, "n": 55}))
    out = tmp_path / "exp"
    rc = main(["run", "--config", str(cfg_path), "--seed", "1", "--reps", "1",
               "--out-dir", str(out), "--workers", "1"])
    assert rc == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["n"] == 55
    assert doc["config"]["seed"] == 1


@pytest.mark.parametrize("argv, field", [
    (["oracle", "--model", "M2", "--x0-known", "300"], "'x0_known'"),
    (["design", "--model", "M3", "--theta", "1,2"], "'true_params'"),
    (["design", "--model", "M1", "--x0-known", "50"], "'x0_known'"),
    (["run", "--model", "M1", "--initial-design", "bogus", "--seed", "1",
      "--reps", "1", "--out-dir", "never-written"], "'initial_design'"),
    (["design", "--model", "M1", "--theta", "1,abc"], "'true_params'"),
    (["run", "--model", "M1", "--seed", "-3", "--reps", "1",
      "--out-dir", "never-written"], "'seed'"),
    (["design", "--model", "M1", "--x-max", "inf"], "'x_max'"),
])
def test_design_and_oracle_reject_invalid_models(argv, field, capsys):
    # the same defaults and rules as `run`, reported as one line, no traceback
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"seqdopt: error: config field {field}: ")
    assert captured.err.count("\n") == 1


def test_a_malformed_true_params_in_a_config_file_is_one_error_line(tmp_path, capsys):
    # this ended in a TypeError traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "M1", "true_params": 5}))
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", str(path), "--seed", "1", "--reps", "1",
              "--out-dir", str(tmp_path / "never-written")])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("seqdopt: error: config field 'true_params': ")
    assert captured.err.count("\n") == 1


def test_a_config_file_integer_too_large_for_a_double_is_one_error_line(tmp_path, capsys):
    # a JSON integer has no size limit; this ended in an OverflowError traceback
    path = tmp_path / "cfg.json"
    path.write_text('{"model": "M1", "x_max": 1' + "0" * 400 + "}")
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", str(path), "--seed", "1", "--reps", "1",
              "--out-dir", str(tmp_path / "never-written")])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("seqdopt: error: config field 'x_max': must be finite")
    assert captured.err.count("\n") == 1


def test_an_m2_change_point_too_large_to_square_is_one_error_line(tmp_path, capsys):
    # the closed form squares x0_known: past about 1.3e154 this ended in an
    # OverflowError traceback
    with pytest.raises(SystemExit) as info:
        main(["run", "--model", "M2", "--x-max", "1e160", "--x0-known", "1e155",
              "--seed", "1", "--reps", "1", "--out-dir", str(tmp_path / "never-written")])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("seqdopt: error: config field 'x0_known': ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "never-written").exists()


@pytest.mark.parametrize("content", [None, '{"model": "M1",'], ids=["missing", "malformed"])
def test_an_unreadable_config_file_is_one_error_line_naming_it(content, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", str(path), "--seed", "1", "--reps", "1",
              "--out-dir", str(tmp_path / "never-written")])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"seqdopt: error: cannot read config file '{path}': ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "never-written").exists()


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "config file must hold a JSON object"),
    ('{"n1": 40}', "config field 'model': is required"),
], ids=["not-an-object", "no-model"])
def test_a_config_file_that_is_no_run_is_one_error_line(content, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", str(path), "--seed", "1", "--reps", "1",
              "--out-dir", str(tmp_path / "never-written")])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"seqdopt: error: {message}")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "never-written").exists()


@pytest.mark.parametrize("flag", ["--out-dir", "--out"])
def test_an_unwritable_output_is_one_error_line_before_any_replication_runs(
        flag, tmp_path, capsys, monkeypatch):
    # both ran every replication first and then ended in a traceback
    from seqdopt import harness

    monkeypatch.setattr(harness, "_run_replications",
                        lambda *args: pytest.fail("a replication ran"))
    (tmp_path / "file").write_text("")
    if flag == "--out-dir":   # a directory inside a regular file
        path = tmp_path / "file" / "x"
        argv = ["run", "--out-dir", str(path)]
    else:                     # a report in a directory that does not exist
        path = tmp_path / "missing" / "x.json"
        argv = ["compare", "--out", str(path)]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--model", "M1", "--seed", "1", "--reps", "2", "--workers", "1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"seqdopt: error: {flag}: ")
    assert str(path) in captured.err and captured.err.count("\n") == 1
