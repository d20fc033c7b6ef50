"""The demos run against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_closed_form_designs_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "closed_form_designs.py"), run_name="__main__")
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "oracle excess" in ln]
    assert [ln.split(":")[0] for ln in lines] == ["M1", "M2", "M3", "GLM_C1", "GLM_C2"]
    # the closed forms are optimal: the grid never beats them by 0.1%
    assert all(float(ln.rsplit(" ", 1)[1]) <= 1e-3 for ln in lines)


@pytest.mark.parametrize("name", ["change_point_density", "estimator_normality",
                                  "factorial_allocation", "sequential_efficiency"])
def test_demo_imports(name, capsys):
    # the whole study at two replications: main() uses every name it needs
    module = runpy.run_path(str(DEMOS / f"{name}.py"), run_name="demo")
    main = module["main"]
    assert "REPS" in main.__globals__
    main.__globals__["REPS"] = 2
    main()
    assert capsys.readouterr().out
