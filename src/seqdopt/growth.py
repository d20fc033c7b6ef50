"""Nonlinear growth models for the scalar-input experiment.

Three mean functions are supported:

* ``M1`` -- pure exponential growth  a1 * exp(-a2 / x).
* ``M2`` -- exponential below a *known* change point x0, linear above it,
  with the linear coefficients pinned by continuity of the mean and its
  slope at x0, so the model keeps parameters (a1, a2).
* ``M3`` -- same shape as M2 but the change point is unknown, giving the
  three-parameter vector (a1, a2, x0).

Responses are Gaussian around the mean with variance sigma2.  sigma2 is a
nuisance parameter: it drives simulation but cancels from every determinant
ratio used by the design criteria, and the least-squares estimate of the
mean parameters does not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

NLR_TAGS = ("M1", "M2", "M3")


@dataclass(frozen=True)
class ExperimentInterval:
    """Closed interval of admissible design points, 0 < x_min < x_max."""

    x_min: float = 0.5
    x_max: float = 210.0

    def __post_init__(self):
        if not 0.0 < self.x_min < self.x_max:
            raise ValueError(f"need 0 < x_min < x_max, got [{self.x_min}, {self.x_max}]")


@dataclass(frozen=True)
class NlrKind:
    """Growth-model tag plus the known change point when tag == 'M2'."""

    tag: str
    x0_known: float | None = None

    def __post_init__(self):
        if self.tag not in NLR_TAGS:
            raise ValueError(f"unknown growth model {self.tag!r}")
        if self.tag == "M2" and self.x0_known is None:
            raise ValueError("M2 requires the known change point x0_known")
        if self.tag != "M2" and self.x0_known is not None:
            raise ValueError(f"x0_known only applies to M2, not {self.tag}")

    @property
    def dim(self) -> int:
        return 3 if self.tag == "M3" else 2


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("design points must be strictly positive")
    return x


def _split_x0(kind: NlrKind, theta) -> tuple[float, float, float]:
    theta = np.asarray(theta, dtype=float)
    if kind.tag == "M3":
        return theta[0], theta[1], theta[2]
    if kind.tag == "M2":
        return theta[0], theta[1], float(kind.x0_known)
    return theta[0], theta[1], np.inf  # M1: exponential branch everywhere


def growth_mean(kind: NlrKind, theta, x):
    """Mean response at x; scalar in, scalar out, arrays broadcast."""
    x = _check_x(x)
    a1, a2, x0 = _split_x0(kind, theta)
    expo = a1 * np.exp(-a2 / x)
    if kind.tag == "M1":
        out = expo
    else:
        # branch rule is x >= x0 -> linear, ties go to the linear side
        lin = a1 * np.exp(-a2 / x0) * (1.0 - a2 / x0 + a2 * x / x0**2)
        out = np.where(x >= x0, lin, expo)
    return float(out) if out.ndim == 0 else out


def growth_grad(kind: NlrKind, theta, x):
    """Analytic gradient of growth_mean w.r.t. the reduced parameters.

    Returns shape (d,) for scalar x and x.shape + (d,) for arrays.  For M3
    the change-point component is identically zero on the exponential
    branch.  At x == x0 exactly, the linear-branch (right) derivative is
    used, matching the branch rule of growth_mean.
    """
    x = _check_x(x)
    a1, a2, x0 = _split_x0(kind, theta)
    e_x = np.exp(-a2 / x)
    d_a1_expo = e_x
    d_a2_expo = -a1 * e_x / x
    if kind.tag == "M1":
        return np.stack(np.broadcast_arrays(d_a1_expo, d_a2_expo), axis=-1)

    e0 = np.exp(-a2 / x0)
    phi = 1.0 - a2 / x0 + a2 * x / x0**2
    d_a1_lin = e0 * phi
    d_a2_lin = a1 * e0 * (-phi / x0 + (-1.0 / x0 + x / x0**2))
    on_lin = x >= x0
    comps = [
        np.where(on_lin, d_a1_lin, d_a1_expo),
        np.where(on_lin, d_a2_lin, d_a2_expo),
    ]
    if kind.tag == "M3":
        d_x0_lin = a1 * e0 * ((a2 / x0**2) * phi + (a2 / x0**2 - 2.0 * a2 * x / x0**3))
        comps.append(np.where(on_lin, d_x0_lin, 0.0))
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def fisher_info_nlr(kind: NlrKind, theta, x: float, sigma2: float) -> np.ndarray:
    """Single-point information sigma2^-1 * grad * grad^T (rank one, PSD)."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive for an information matrix")
    g = growth_grad(kind, theta, x)
    return np.outer(g, g) / sigma2


def cumulative_fisher_nlr(kind: NlrKind, theta, xs, sigma2: float) -> np.ndarray:
    """Sum of single-point informations over an array of design points."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive for an information matrix")
    g = growth_grad(kind, theta, np.asarray(xs, dtype=float))
    g = np.atleast_2d(g)
    return (g.T @ g) / sigma2


def simulate_response_nlr(kind: NlrKind, theta, x, sigma2: float, rng: np.random.Generator):
    """Mean plus N(0, sigma2) noise drawn from the caller-owned stream."""
    mean = growth_mean(kind, theta, x)
    if sigma2 == 0.0:
        return mean
    noise = rng.normal(0.0, np.sqrt(sigma2), size=np.shape(mean) or None)
    out = mean + noise
    return float(out) if np.ndim(out) == 0 else out
