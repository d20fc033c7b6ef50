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
    if (x <= 0.0).any():
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

    Returns shape (d,) for scalar x and x.shape + (d,) for arrays, filled
    in place: the exponential-branch columns on every point, then the
    linear-branch columns over the points with x >= x0 only.  For M3 the
    change-point component is identically zero on the exponential branch.
    At x == x0 exactly, the linear-branch (right) derivative is used,
    matching the branch rule of growth_mean.  The rows of a least-squares
    Jacobian are these gradients, so its normal matrix J^T J divided by
    sigma2 is the cumulative information (``cumulative_fisher_nlr``).
    """
    x = _check_x(x)
    a1, a2, x0 = _split_x0(kind, theta)
    g = np.empty(x.shape + (kind.dim,))
    e_x = np.exp(-a2 / x)
    g[..., 0] = e_x
    g[..., 1] = -a1 * e_x / x
    if kind.tag == "M1":
        return g
    if kind.tag == "M3":
        g[..., 2] = 0.0
    on_lin = x >= x0
    if x.ndim:
        x = x[on_lin]
    elif on_lin:
        on_lin = ...   # a scalar on the linear branch fills the whole row
    else:
        return g
    e0 = np.exp(-a2 / x0)
    phi = 1.0 - a2 / x0 + a2 * x / x0**2
    g[on_lin, 0] = e0 * phi
    g[on_lin, 1] = a1 * e0 * (-phi / x0 + (-1.0 / x0 + x / x0**2))
    if kind.tag == "M3":
        g[on_lin, 2] = a1 * e0 * ((a2 / x0**2) * phi + (a2 / x0**2 - 2.0 * a2 * x / x0**3))
    return g


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
