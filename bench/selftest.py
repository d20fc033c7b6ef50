"""Fast self-test of the benchmark's output checks, at tiny sizes.

Runs small studies through harness.run_experiment, shows that every check
passes on their real output, then corrupts one trajectory (or summary) per
check and shows that the check fails on it.  Exits 1 if any check passes
what it should reject or rejects real output.

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import Cell  # noqa: E402

OUT = HERE.parent / ".bench_out" / "selftest"

#: tiny cells covering every model, method and check of the workloads, and
#: M1 for the normality check, which no workload runs now
CELLS = (
    Cell("M3", "cm", 12, 30, "uniform", 2),
    Cell("M3", "pics", 12, 30, "uniform", 3),
    Cell("M3", "balanced_pics", 12, 30, "uniform", 3),
    Cell("GLM_C1", "cm", 20, 120, "four_point", 2),
    Cell("GLM_C1", "pics", 20, 300, "four_point", 4),
    Cell("GLM_C2", "cm", 20, 120, "four_point", 2),
    Cell("GLM_C2", "pics", 20, 300, "four_point", 4),
    Cell("M1", "pics", 20, 100, "uniform", 40),
    Cell("M1", "cm", 10, 30, "uniform", 2),
)


def _last(summary):
    return summary.trajectories[0].records[-1]


def _scale_theta(summary, factor):
    """Scale every final estimate, keeping the logistic constraints' form."""
    k = 3 if summary.config.model == "GLM_C1" else 2
    for traj in summary.trajectories:
        rec = traj.records[-1]
        rec.theta_hat = np.asarray(rec.theta_hat, dtype=float).copy()
        rec.theta_hat[:k] *= factor


def corrupt_shape(summary):
    summary.trajectories[0].records.pop()


def corrupt_points(summary):
    if checks.is_glm(summary.config.model):
        _last(summary).x = (1, 0)
    else:
        _last(summary).x = summary.config.x_max + 1.0


def corrupt_admissible(summary):
    rec = _last(summary)
    rec.theta_hat = np.asarray(rec.theta_hat, dtype=float).copy()
    if summary.config.model == "GLM_C1":
        rec.theta_hat[2] += 0.01
    elif summary.config.model == "GLM_C2":
        rec.theta_hat[2] = 0.01
    else:
        rec.theta_hat[0] = 2.0 * checks.ALPHA_BOUNDS[1]


def corrupt_information(summary):
    _last(summary).det_cum_info *= 1.0 + 1e-6


def corrupt_efficiency(summary):
    _scale_theta(summary, 1.0 + 1e-3)


def corrupt_optimum(summary):
    _scale_theta(summary, 0.9)


def corrupt_allocation(summary):
    n1 = summary.config.n1
    for traj in summary.trajectories:
        for rec in traj.records[n1:]:
            rec.x = (1, 1)


def corrupt_normality(summary):
    _scale_theta(summary, 1.05)


def corrupt_artifacts(summary):
    summary.trajectories.pop()


CORRUPTIONS = {
    "shape": corrupt_shape,
    "points": corrupt_points,
    "admissible": corrupt_admissible,
    "information": corrupt_information,
    "efficiency": corrupt_efficiency,
    "optimum": corrupt_optimum,
    "allocation": corrupt_allocation,
    "normality": corrupt_normality,
    "artifacts": corrupt_artifacts,
}


def check_reference_gradient() -> list[str]:
    """The own growth gradients agree with central differences of the mean."""
    out = []
    x = np.linspace(1.0, 209.0, 97)
    for model, theta in (("M1", [32.11, 105.65]), ("M3", [32.11, 105.65, 86.67])):
        grad = checks.growth_grad(model, theta, x)
        for k in range(len(theta)):
            h = 1e-6 * max(abs(theta[k]), 1.0)
            up, down = list(theta), list(theta)
            up[k] += h
            down[k] -= h
            fd = (checks.growth_mean(model, up, x) - checks.growth_mean(model, down, x)) / (2 * h)
            # skip the points within h of a moving change point
            keep = np.abs(x - theta[-1]) > 1e-3 if model == "M3" else slice(None)
            if not np.allclose(grad[keep, k], fd[keep], rtol=1e-6, atol=1e-9):
                out.append(f"{model} gradient component {k} disagrees with differences")
    return out


def main() -> int:
    from seqdopt.config import parse_config
    from seqdopt.harness import run_experiment

    bad = check_reference_gradient()
    print(f"reference gradient: {'ok' if not bad else bad}")
    tested = set()
    for i, cell in enumerate(CELLS):
        cfg = parse_config(**cell.config_kwargs(100 + 1000 * i))
        out_dir = OUT / cell.name
        summary = run_experiment(cfg, out_dir=str(out_dir), workers=2)
        real = checks.applicable_checks(cfg, str(out_dir))
        for name, check in real.items():
            fails = checks.run_check(check, cfg, summary)
            if fails:
                bad.append(f"{cell.name}: {name} rejects real output: {fails[:2]}")
                continue
            broken = copy.deepcopy(summary)
            CORRUPTIONS[name](broken)
            if not checks.run_check(check, cfg, broken):
                bad.append(f"{cell.name}: {name} accepts a corrupted trajectory")
            tested.add(name)
        changed = copy.deepcopy(summary.trajectories)
        changed[-1].records[-1].y += 1e-12
        if not checks.check_same(summary.trajectories, changed, "replay"):
            bad.append(f"{cell.name}: determinism accepts a changed response")
        print(f"{cell.name}: checked {', '.join(sorted(real))}, determinism")
    missing = set(CORRUPTIONS) - tested
    if missing:
        bad.append(f"checks never exercised: {sorted(missing)}")
    for line in bad:
        print(f"FAILED {line}")
    print("selftest", "FAILED" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
