"""Efficiency, density and normality diagnostics over finished trajectories.

The per-step relative efficiency compares the determinant of the averaged
cumulative information under the step's own estimate to the determinant of
I* (``ModelSpec.i_star``), the information at the true optimal design.  The
engine records the former at every step, so the curve is array arithmetic
over that column; nothing is refitted or rebuilt here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateInformation
from .linalg import det_sym
from .logistic import LEVEL_POINTS

if TYPE_CHECKING:  # the model table refers to this module's aggregates
    from .engine import Trajectory
    from .modelspec import ModelSpec


@dataclass
class EfficiencyCurve:
    """Relative efficiency e_i for i = n1..n (values can dip below 0 early)."""

    steps: np.ndarray
    values: np.ndarray

    def at(self, step: int) -> float:
        k = int(np.searchsorted(self.steps, step))
        if k >= len(self.steps) or self.steps[k] != step:
            raise KeyError(f"step {step} not on the curve")
        return float(self.values[k])


@dataclass
class DensityHistogram:
    edges: np.ndarray   # bins + 1 edges
    mass: np.ndarray    # sums to 1

    def mass_near(self, x: float, halfwidth_bins: int) -> float:
        """Pooled mass within +/- `halfwidth_bins` bin widths of x."""
        width = self.edges[1] - self.edges[0]
        lo, hi = x - halfwidth_bins * width, x + halfwidth_bins * width
        centers = (self.edges[:-1] + self.edges[1:]) / 2.0
        return float(self.mass[(centers >= lo) & (centers <= hi)].sum())


def design_info(model: ModelSpec, theta, measure) -> np.ndarray:
    """Information sum_i w_i * I(theta, x_i) of a design measure."""
    return sum(w * model.family.fisher_point(model, theta, x)
               for x, w in zip(measure.support, measure.weights))


def relative_efficiency(traj: Trajectory) -> EfficiencyCurve:
    """e_i = 1 - |det((1/i) sum_j I(theta_hat_i, X_j)) - det(I*)| / det(I*).

    The sum over j <= i is the cumulative information whose determinant the
    engine records at step i, and det(M / i) = det(M) / i^d for d x d M.
    I* is the run's ``traj.model.i_star``.
    """
    det_star = det_sym(traj.model.i_star)
    if not det_star > 0.0:   # NaN fails too
        raise DegenerateInformation(f"det(I*) = {det_star!r} must be positive")

    steps = np.arange(traj.n1, len(traj) + 1)
    dets = traj.det_cum_info[traj.n1 - 1:] / steps.astype(float) ** traj.model.dim
    return EfficiencyCurve(steps=steps, values=1.0 - np.abs(dets - det_star) / det_star)


def crossing_step(curve: EfficiencyCurve, target: float) -> int | None:
    """Smallest step with curve value >= target, or None if never reached."""
    hits = np.nonzero(curve.values >= target)[0]
    return int(curve.steps[hits[0]]) if hits.size else None


def sequential_density(trajectories: list[Trajectory], bins: int = 100) -> DensityHistogram:
    """Normalized histogram of all adaptive-stage points, pooled over runs,
    on the model's interval."""
    model = trajectories[0].model
    pooled = np.concatenate([t.x[t.n1:] for t in trajectories])
    hist, edges = np.histogram(pooled, bins=bins, range=(model.x_min, model.x_max))
    return DensityHistogram(edges=edges, mass=hist / hist.sum())


def normality_diagnostic(theta_hats, theta_star, cum_infos) -> dict:
    """Standardize replicated final estimates by their own information.

    z_r = L_r^T (theta_hat_r - theta*), with L_r the lower Cholesky factor
    of replication r's cumulative information; if the estimates are
    asymptotically efficient the z_r pool to a standard normal sample.
    Returns the pooled z draws with their empirical mean and covariance.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    zs = np.empty((len(theta_hats), theta_star.size))
    for r, (theta, info) in enumerate(zip(theta_hats, cum_infos)):
        lower = np.linalg.cholesky(np.asarray(info, dtype=float))
        zs[r] = lower.T @ (np.asarray(theta, dtype=float) - theta_star)
    return {
        "z": zs,
        "mean": zs.mean(axis=0),
        "cov": np.cov(zs, rowvar=False),
    }


def glm_allocation(trajectories: list[Trajectory]) -> np.ndarray:
    """Pooled adaptive-stage cell proportions in the fixed row order."""
    counts = np.bincount(np.concatenate([t.x[t.n1:] for t in trajectories]),
                         minlength=4)
    return counts / counts.sum()


def write_csv(path, header, rows):
    """The header, then the rows (iterables of str fields), each comma-joined and
    ended by \\r\\n: the csv module's output for fields that need no quoting."""
    with open(path, "w", newline="") as fh:
        for row in itertools.chain([header], rows):
            fh.write(",".join(row) + "\r\n")


def efficiency_to_csv(curve: EfficiencyCurve, path):
    write_csv(path, ["step", "value"],
              zip(map(str, curve.steps.tolist()), map(repr, curve.values.tolist())))


def allocation_to_csv(allocation: np.ndarray, path):
    write_csv(path, ["x1", "x2", "proportion"],
              ([str(x1), str(x2), repr(float(p))]
               for (x1, x2), p in zip(LEVEL_POINTS, allocation)))


def histogram_to_csv(hist: DensityHistogram, path):
    columns = (hist.edges[:-1], hist.edges[1:], hist.mass)
    write_csv(path, ["bin_left", "bin_right", "mass"],
              zip(*(map(repr, c.tolist()) for c in columns)))


__all__ = [
    "EfficiencyCurve", "DensityHistogram", "design_info",
    "relative_efficiency", "crossing_step",
    "sequential_density", "normality_diagnostic", "glm_allocation",
    "write_csv", "allocation_to_csv", "efficiency_to_csv", "histogram_to_csv",
]
