"""Shared simulation batteries for the acceptance suite, and the reference
helpers the tests check the package against: among them the formulas of
functions the package no longer holds (``reference_*``), and ``model_spec``,
a model's spec with unchecked overrides.

The heavy 50-replication runs are computed once per session and reused by
the efficiency, timing, allocation and density criteria.  Everything is
seeded from one module-level constant, so the whole acceptance outcome is
deterministic.
"""

import dataclasses
import itertools
import os
import time

import numpy as np
import pytest

from seqdopt.config import RunConfig, parse_config
from seqdopt.designs import DesignMeasure, m2_tau
from seqdopt.errors import DegenerateDesign
from seqdopt.growth import growth_grad, growth_mean
from seqdopt.harness import run_experiment
from seqdopt.linalg import det_sym
from seqdopt.logistic import (LEVEL_POINTS, XXT_CELLS, X_CELLS, cell_index, cell_probs,
                              cell_weights)
from seqdopt.modelspec import ModelSpec

ACCEPTANCE_SEED = 20240
REPLICATIONS = 50
WORKERS = os.cpu_count() or 2

#: (model, n1, n, initial_design) cells of the main comparison battery
BATTERY_CELLS = [
    ("M1", 40, 100, "uniform"),
    ("M1", 60, 200, "uniform"),
    ("M2", 40, 100, "three_point"),
    ("M2", 60, 200, "three_point"),
    ("M3", 40, 100, "uniform"),
    ("M3", 60, 200, "uniform"),
    ("GLM_C1", 80, 800, "four_point"),
    ("GLM_C1", 100, 1200, "four_point"),
    ("GLM_C2", 80, 800, "four_point"),
    ("GLM_C2", 100, 1200, "four_point"),
]


def model_spec(name: str, **overrides):
    """A bare ``ModelSpec``: the model's fields at their table defaults, with
    `overrides` put in unchecked, since some tests need a spec that a
    RunConfig would reject."""
    cfg = RunConfig(model=name)
    spec = ModelSpec(*(getattr(cfg, f.name) for f in dataclasses.fields(ModelSpec)))
    return dataclasses.replace(spec, **overrides)


def central_diff_gradient(f, theta, h: float | None = None) -> np.ndarray:
    """Central finite-difference gradient of a scalar function.

    Component k uses step h_k = 1e-6 * max(1, |theta_k|) unless `h` is given.
    This is the independent oracle against which analytic gradients are
    checked, so it deliberately shares no code with them.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for k in range(theta.size):
        hk = h if h is not None else 1e-6 * max(1.0, abs(theta[k]))
        up = theta.copy()
        dn = theta.copy()
        up[k] += hk
        dn[k] -= hk
        grad[k] = (f(up) - f(dn)) / (2.0 * hk)
    return grad


def simulate_binary(beta, point, rng: np.random.Generator) -> int:
    """One Bernoulli draw at a level combination: the reference for the
    logistic models' simulated responses."""
    return int(rng.random() < cell_probs(beta)[cell_index(point)])


def reference_sigmoid(eta) -> np.ndarray:
    """Overflow-safe logistic function by masked assignment: the formula
    the package's cell probabilities must reproduce bit for bit."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_cell_probs(beta) -> np.ndarray:
    return reference_sigmoid(X_CELLS @ np.asarray(beta, dtype=float))


def reference_cell_weights(beta) -> np.ndarray:
    p = reference_cell_probs(beta)
    return p * (1.0 - p)


def reference_fisher_from_counts(counts, beta) -> np.ndarray:
    """sum_c n_c * w_c * x_c x_c^T as one einsum over the cell matrices."""
    counts = np.asarray(counts, dtype=float)
    return np.einsum("c,cij->ij", counts * reference_cell_weights(beta), XXT_CELLS)


def reference_det_sym(a) -> float:
    """Cofactor determinant of a 2x2 or 3x3 matrix on numpy scalars."""
    a = np.asarray(a, dtype=float)
    if a.shape == (2, 2):
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def reference_fisher_info_nlr(model, theta, x) -> np.ndarray:
    """Growth single-point information sigma2^-1 * grad * grad^T."""
    g = growth_grad(model, theta, x)
    return np.outer(g, g) / model.sigma2


def reference_fisher_info_glm(beta, point) -> np.ndarray:
    """Logistic single-trial information w * x x^T of the point's cell."""
    c = cell_index(point)
    return reference_cell_weights(beta)[c] * XXT_CELLS[c]


def reference_cumulative_fisher_nlr(model, theta, xs) -> np.ndarray:
    """Sum of the growth single-point informations over the points xs, as
    one product of the gradient table with itself."""
    g = np.atleast_2d(growth_grad(model, theta, np.asarray(xs, dtype=float)))
    return (g.T @ g) / model.sigma2


def reference_simulate_response_nlr(model, theta, x, rng: np.random.Generator):
    """Growth mean plus N(0, sigma2) noise, for a scalar or an array of x."""
    mean = growth_mean(model, theta, x)
    noise = rng.normal(0.0, np.sqrt(model.sigma2), size=np.shape(mean) or None)
    out = mean + noise
    return float(out) if np.ndim(out) == 0 else out


def reference_cm_select_cells(theta, cum_info):
    """cm's logistic selection as the engine wrote it when it read the cell
    formulas itself: the level pairs in lexicographic order, each scored by
    det(cum_info + w_c x_c x_c^T), the first of the highest kept."""
    w = cell_weights(theta)
    best_point, best_val = None, -np.inf
    for point in sorted(LEVEL_POINTS):
        c = cell_index(point)
        val = det_sym(cum_info + w[c] * XXT_CELLS[c])
        if val > best_val:
            best_point, best_val = point, val
    return best_point


def reference_optimal_design_m1(model, theta) -> DesignMeasure:
    """M1's closed form as written before the growth designs shared one
    balanced-measure builder."""
    a1, a2 = float(theta[0]), float(theta[1])
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("alpha1 and alpha2 must be positive")
    x1 = max(a2 * model.x_max / (a2 + model.x_max), model.x_min)
    x2 = model.x_max
    if abs(x1 - x2) < 1e-9:
        raise DegenerateDesign("two-point support collapsed")
    return DesignMeasure((x1, x2), (0.5, 0.5))


def reference_optimal_design_m2(model, theta) -> DesignMeasure:
    """M2's closed form, as `reference_optimal_design_m1`."""
    a2 = float(theta[1])
    if float(theta[0]) <= 0.0 or a2 <= 0.0:
        raise ValueError("alpha1 and alpha2 must be positive")
    tau = m2_tau(a2, float(model.x0_known), model.x_max)
    x1 = max(tau, model.x_min)
    x2 = model.x_max
    if abs(x1 - x2) < 1e-9 or x1 > x2:
        raise DegenerateDesign("two-point support collapsed")
    return DesignMeasure((x1, x2), (0.5, 0.5))


def reference_optimal_design_m3(model, theta) -> DesignMeasure:
    """M3's closed form, as `reference_optimal_design_m1`."""
    a1, a2, x0 = (float(v) for v in theta)
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("alpha1 and alpha2 must be positive")
    if not model.x_min < x0 < model.x_max:
        raise ValueError(f"x0={x0} outside ({model.x_min}, {model.x_max})")
    x1 = max(a2 * x0 / (a2 + x0), model.x_min)
    pts = (x1, x0, model.x_max)
    if min(abs(p - q) for p, q in itertools.combinations(pts, 2)) < 1e-9:
        raise DegenerateDesign("three-point support has coincident points")
    third = 1.0 / 3.0
    return DesignMeasure(pts, (third, third, third))


def reference_design_info(measure, fisher_fn) -> np.ndarray:
    """sum_i w_i * fisher_fn(x_i) over a design measure's support."""
    return sum(w * fisher_fn(x) for x, w in zip(measure.support, measure.weights))


#: package primitive name -> the reference formula it must match bit for bit
REFERENCE_PRIMITIVES = {
    "cell_probs": reference_cell_probs,
    "cell_weights": reference_cell_weights,
    "fisher_from_counts": reference_fisher_from_counts,
    "det_sym": reference_det_sym,
}


@pytest.fixture(scope="session")
def battery():
    """dict: (model, n1, n, method) -> (ReplicationSummary, wall_seconds)."""
    results = {}
    for model, n1, n, init in BATTERY_CELLS:
        for method in ("cm", "pics"):
            cfg = parse_config(model=model, method=method, n1=n1, n=n,
                               initial_design=init, seed=ACCEPTANCE_SEED,
                               replications=REPLICATIONS)
            t0 = time.perf_counter()
            summary = run_experiment(cfg, workers=WORKERS)
            results[(model, n1, n, method)] = (summary,
                                               time.perf_counter() - t0)
    return results


@pytest.fixture(scope="session")
def balanced_m3_battery():
    cfg = parse_config(model="M3", method="balanced_pics", n1=60, n=200,
                       initial_design="uniform", seed=ACCEPTANCE_SEED,
                       replications=REPLICATIONS)
    return run_experiment(cfg, workers=WORKERS)


@pytest.fixture(scope="session")
def normality_battery():
    cfg = parse_config(model="M1", method="pics", n1=60, n=400,
                       initial_design="uniform", seed=ACCEPTANCE_SEED,
                       replications=200)
    t0 = time.perf_counter()
    summary = run_experiment(cfg, workers=WORKERS)
    return summary, time.perf_counter() - t0
