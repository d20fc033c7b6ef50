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
