"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run on the shared 50-replication batteries from
conftest; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

from seqdopt import modelspec
from seqdopt.cli import main as cli_main
from seqdopt.designs import grid_oracle_glm, grid_oracle_three_point, grid_oracle_two_point
from seqdopt.growth import growth_grad, growth_mean
from seqdopt.linalg import det_sym
from seqdopt.metrics import (
    crossing_step,
    design_info,
    normality_diagnostic,
    sequential_density,
)

from conftest import BATTERY_CELLS, central_diff_gradient, model_spec

pytestmark = pytest.mark.acceptance

def _report(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_acceptance_1_closed_form_vs_oracle():
    """Grid oracles never beat the closed forms by more than 0.1%."""
    t0 = time.perf_counter()
    failures = []
    details = []

    for name in ("M1", "M2", "M3"):
        model = model_spec(name)
        theta = np.asarray(model.true_params)
        closed = modelspec.closed_form_design(model, theta)
        if name == "M3":
            oracle = grid_oracle_three_point(model, theta, steps=(2.0, 0.25, 0.01))
            support_tol = 0.25
        else:
            oracle = grid_oracle_two_point(model, theta, step=0.05)
            support_tol = 0.1
        crit = lambda measure: det_sym(design_info(model, theta, measure))
        excess = crit(oracle) / crit(closed) - 1.0
        gap = max(abs(a - b) for a, b in zip(sorted(oracle.support),
                                             sorted(closed.support)))
        details.append(f"{name}: excess={excess:.2e} support_gap={gap:.3f}")
        if excess > 1e-3 or gap > support_tol:
            failures.append(name)

    for name in ("GLM_C1", "GLM_C2"):
        model = model_spec(name)
        theta = np.asarray(model.true_params)
        closed = modelspec.closed_form_design(model, theta)
        oracle = grid_oracle_glm(theta, step=0.001)
        crit = lambda measure: det_sym(design_info(model, theta, measure))
        excess = crit(oracle) / crit(closed) - 1.0
        gap = max(abs(a - b) for a, b in zip(oracle.weights, closed.weights))
        details.append(f"{name}: excess={excess:.2e} alloc_gap={gap:.4f}")
        if excess > 1e-3 or gap > 0.002:
            failures.append(name)

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(1, ok, f"{'; '.join(details)}; elapsed={elapsed:.1f}s")
    assert not failures, f"oracle beat the closed form for {failures}"
    assert elapsed < 120.0


def test_acceptance_2_efficiency_crossings(battery):
    """M2, 3-point start, (60,200): plug-in reaches 0.6 near 135, the
    criterion-maximizer near 185, strictly later."""
    pics, t_pics = battery[("M2", 60, 200, "pics")]
    cm, t_cm = battery[("M2", 60, 200, "cm")]
    cross_pics = crossing_step(pics.mean_curve, 0.6)
    cross_cm = crossing_step(cm.mean_curve, 0.6)
    elapsed = t_pics + t_cm
    ok = (cross_pics is not None and 115 <= cross_pics <= 155
          and cross_cm is not None and 160 <= cross_cm <= 210
          and cross_pics < cross_cm and elapsed < 300.0)
    _report(2, ok, f"pics crossing={cross_pics} (window [115,155]), "
                   f"cm crossing={cross_cm} (window [160,210]), "
                   f"elapsed={elapsed:.1f}s")
    assert cross_pics is not None and 115 <= cross_pics <= 155
    assert cross_cm is not None and 160 <= cross_cm <= 210
    assert cross_pics < cross_cm
    assert elapsed < 300.0


def test_acceptance_3_efficiency_dominance_and_convergence(battery):
    """Plug-in final efficiency >= criterion-maximizer's, and efficiency
    grows from the midpoint to the final step, per cell and method."""
    failures = []
    lines = []
    for model, n1, n, _init in BATTERY_CELLS:
        mid = (n1 + n) // 2
        finals = {}
        for method in ("cm", "pics"):
            summary, _ = battery[(model, n1, n, method)]
            e_mid = float(summary.mean_curve.at(mid))
            e_fin = float(summary.mean_curve.values[-1])
            finals[method] = e_fin
            if not e_fin > e_mid:
                failures.append(f"{model}({n1},{n}) {method}: "
                                f"e_final {e_fin:.3f} <= e_mid {e_mid:.3f}")
        if not finals["pics"] >= finals["cm"]:
            failures.append(f"{model}({n1},{n}): pics {finals['pics']:.4f} "
                            f"< cm {finals['cm']:.4f}")
        lines.append(f"{model}({n1},{n}): cm={finals['cm']:.3f} "
                     f"pics={finals['pics']:.3f}")
    ok = not failures
    _report(3, ok, "; ".join(lines) + ("" if ok else f"; FAILURES: {failures}"))
    assert not failures, failures


def test_theorem1_trend_at_fixed_steps(battery):
    """Mean efficiency at step 200 strictly exceeds that at step 100 on the
    (60,200) interval-model runs, per method (supplement to criterion 3)."""
    for model in ("M1", "M2", "M3"):
        for method in ("cm", "pics"):
            summary, _ = battery[(model, 60, 200, method)]
            curve = summary.mean_curve
            assert curve.at(200) > curve.at(100), (model, method)


def test_acceptance_4_timing_orderings(battery):
    """Median compute: plug-in beats the criterion-maximizer on the interval
    models (>= 3x on the three-parameter one); factorial cases within 2x
    with the plug-in no slower."""
    failures = []
    lines = []
    for model, n1, n, _init in BATTERY_CELLS:
        cm, _ = battery[(model, n1, n, "cm")]
        pics, _ = battery[(model, n1, n, "pics")]
        ratio = cm.median_total_ms / pics.median_total_ms
        lines.append(f"{model}({n1},{n}): cm/pics={ratio:.2f}")
        if model.startswith("GLM"):
            if not (pics.median_total_ms <= cm.median_total_ms and ratio <= 2.0):
                failures.append(f"{model}({n1},{n}) ratio={ratio:.2f}")
        else:
            if not pics.median_total_ms < cm.median_total_ms:
                failures.append(f"{model}({n1},{n}) pics not faster")
            if model == "M3" and ratio < 3.0:
                failures.append(f"M3({n1},{n}) ratio={ratio:.2f} < 3")
    ok = not failures
    _report(4, ok, "; ".join(lines) + ("" if ok else f"; FAILURES: {failures}"))
    assert not failures, failures


def test_acceptance_5_normality_diagnostic(normality_battery):
    """Standardized final estimates look standard normal at n=400."""
    summary, elapsed = normality_battery
    model = summary.config
    diag = normality_diagnostic([t.final_theta for t in summary.trajectories],
                                model.true_params,
                                [t.final_info for t in summary.trajectories])
    mean, cov = diag["mean"], diag["cov"]
    diag_ok = np.all((np.diag(cov) >= 0.7) & (np.diag(cov) <= 1.3))
    off = cov[0, 1]
    ok = (np.all(np.abs(mean) <= 0.25) and diag_ok and abs(off) < 0.2
          and elapsed < 300.0)
    _report(5, ok, f"mean={np.round(mean, 3)}, cov_diag={np.round(np.diag(cov), 3)}, "
                   f"off_diag={off:.3f}, elapsed={elapsed:.1f}s")
    assert np.all(np.abs(mean) <= 0.25)
    assert diag_ok
    assert abs(off) < 0.2
    assert elapsed < 300.0


def test_acceptance_6_glm_allocation_convergence(battery):
    """Pooled adaptive allocation approaches the closed-form proportions."""
    summary, _ = battery[("GLM_C1", 100, 1200, "pics")]
    model = summary.config
    closed = modelspec.closed_form_design(model, model.true_params)
    target = np.asarray(closed.weights)

    # independent confirmation of the target via the simplex oracle
    oracle = grid_oracle_glm(model.true_params, step=0.001)
    oracle_gap = np.max(np.abs(np.asarray(oracle.weights) - target))

    alloc = summary.allocation
    gap = np.max(np.abs(alloc - target))
    ok = gap <= 0.05 and oracle_gap <= 0.002
    _report(6, ok, f"allocation={np.round(alloc, 4)}, target={np.round(target, 4)}, "
                   f"max_gap={gap:.4f}, oracle_gap={oracle_gap:.4f}")
    assert oracle_gap <= 0.002
    assert gap <= 0.05


def test_acceptance_7_gradient_and_density(balanced_m3_battery):
    """Analytic gradients match finite differences; balanced plug-in spreads
    a third of its draws around each optimal point."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for name in ("M1", "M2", "M3"):
        model = model_spec(name)
        theta_star = np.asarray(model.true_params, dtype=float)
        done = 0
        while done < 20:
            x = rng.uniform(0.6, 209.0)
            if name != "M1" and abs(x - 86.67) < 0.5:
                continue
            t = theta_star * rng.uniform(0.8, 1.2, size=theta_star.size)
            if name == "M3":
                t[2] = float(np.clip(t[2], 5.0, 205.0))
            analytic = growth_grad(model, t, x)
            numeric = central_diff_gradient(lambda v: growth_mean(model, v, x), t)
            denom = np.maximum(np.abs(numeric), 1e-8)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
            done += 1
    grad_ok = worst < 1e-5

    summary = balanced_m3_battery
    model = summary.config
    support = modelspec.closed_form_design(model, model.true_params).support
    hist = sequential_density(summary.trajectories, bins=100)
    # equal-split check: partition the histogram by nearest support point
    masses = hist.mode_masses(support)
    dens_ok = all(abs(m - 1.0 / 3.0) <= 0.03 for m in masses)

    ok = grad_ok and dens_ok
    _report(7, ok, f"worst gradient rel err={worst:.2e}, "
                   f"mode masses={np.round(masses, 4)} (target 1/3 each)")
    assert grad_ok, f"gradient mismatch {worst}"
    assert dens_ok, f"mode masses {masses}"


def test_m3_plugin_density_concentrates_on_support(battery):
    """Plain plug-in draws pile up near the three optimal points (the
    balanced variant additionally splits them a third each)."""
    summary, _ = battery[("M3", 60, 200, "pics")]
    model = summary.config
    support = modelspec.closed_form_design(model, model.true_params).support
    hist = sequential_density(summary.trajectories, bins=100)
    near = sum(hist.mass_near(s, halfwidth_bins=2) for s in support)
    assert near > 0.8


def test_acceptance_8_run_determinism(tmp_path):
    """Identical config+seed reproduces every reproducible artifact byte for
    byte (wall-clock timing lives only in timing.json)."""
    cases = [
        (["run", "--model", "M2", "--method", "cm", "--n1", "60", "--n", "80",
          "--initial-design", "three_point", "--seed", "31", "--reps", "2",
          "--workers", "2"],
         ["trajectories.csv", "mean_efficiency.csv", "density.csv",
          "summary.json"]),
        (["run", "--model", "GLM_C2", "--n1", "80", "--n", "140",
          "--seed", "32", "--reps", "2", "--workers", "1"],
         ["trajectories.csv", "mean_efficiency.csv", "allocation.csv",
          "summary.json"]),
    ]
    identical = True
    for k, (args, files) in enumerate(cases):
        out_a = tmp_path / f"a{k}"
        out_b = tmp_path / f"b{k}"
        assert cli_main(args + ["--out-dir", str(out_a)]) == 0
        assert cli_main(args + ["--out-dir", str(out_b)]) == 0
        for name in files:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                identical = False
    _report(8, identical, "byte-identical reruns for interval and factorial "
                          "configurations")
    assert identical
