"""Nonlinear growth models for the scalar-input experiment.

Three mean functions are supported:

* ``M1`` -- pure exponential growth  a1 * exp(-a2 / x).
* ``M2`` -- exponential below a *known* change point x0, linear above it,
  with the linear coefficients pinned by continuity of the mean and its
  slope at x0, so the model keeps parameters (a1, a2).
* ``M3`` -- same shape as M2 but the change point is unknown, giving the
  three-parameter vector (a1, a2, x0).

Every function takes the ``ModelSpec`` and reads from it the model's name,
M2's known change point and sigma2; ``config.validate_config`` has checked
them.  Responses are Gaussian around the mean with variance sigma2.  sigma2
is a nuisance parameter: it drives simulation but cancels from every
determinant ratio used by the design criteria, and the least-squares
estimate of the mean parameters does not depend on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:
    from .modelspec import ModelSpec


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise DomainError("design points must be strictly positive")
    return x


def _split_x0(model: ModelSpec, theta) -> tuple[float, float, float]:
    theta = np.asarray(theta, dtype=float)
    if model.name == "M3":
        return theta[0], theta[1], theta[2]
    if model.name == "M2":
        return theta[0], theta[1], float(model.x0_known)
    return theta[0], theta[1], np.inf  # M1: exponential branch everywhere


def growth_mean(model: ModelSpec, theta, x):
    """Mean response at x; scalar in, scalar out, arrays broadcast."""
    x = _check_x(x)
    a1, a2, x0 = _split_x0(model, theta)
    expo = a1 * np.exp(-a2 / x)
    if model.name == "M1":
        out = expo
    else:
        # branch rule is x >= x0 -> linear, ties go to the linear side
        lin = a1 * np.exp(-a2 / x0) * (1.0 - a2 / x0 + a2 * x / x0**2)
        out = np.where(x >= x0, lin, expo)
    return float(out) if out.ndim == 0 else out


def growth_grad(model: ModelSpec, theta, x):
    """Analytic gradient of growth_mean w.r.t. the reduced parameters.

    Returns shape (d,) for scalar x and x.shape + (d,) for arrays, with d
    the length of theta, filled in place: the exponential-branch columns on
    every point, then the linear-branch columns over the points with
    x >= x0 only.  For M3 the change-point component is identically zero on
    the exponential branch.  At x == x0 exactly, the linear-branch (right)
    derivative is used, matching the branch rule of growth_mean.  The rows
    of a least-squares Jacobian are these gradients, so its normal matrix
    J^T J divided by sigma2 is the cumulative information
    (``cumulative_fisher_nlr``).
    """
    x = _check_x(x)
    a1, a2, x0 = _split_x0(model, theta)
    g = np.empty(x.shape + (len(theta),))
    e_x = np.exp(-a2 / x)
    g[..., 0] = e_x
    g[..., 1] = -a1 * e_x / x
    if model.name == "M1":
        return g
    if model.name == "M3":
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
    if model.name == "M3":
        g[on_lin, 2] = a1 * e0 * ((a2 / x0**2) * phi + (a2 / x0**2 - 2.0 * a2 * x / x0**3))
    return g


def fisher_info_nlr(model: ModelSpec, theta, x: float) -> np.ndarray:
    """Single-point information sigma2^-1 * grad * grad^T (rank one, PSD)."""
    g = growth_grad(model, theta, x)
    return np.outer(g, g) / model.sigma2


def cumulative_fisher_nlr(model: ModelSpec, theta, xs) -> np.ndarray:
    """Sum of single-point informations over an array of design points."""
    g = growth_grad(model, theta, np.asarray(xs, dtype=float))
    g = np.atleast_2d(g)
    return (g.T @ g) / model.sigma2


def simulate_response_nlr(model: ModelSpec, theta, x, rng: np.random.Generator):
    """Mean plus N(0, sigma2) noise drawn from the caller-owned stream."""
    mean = growth_mean(model, theta, x)
    if model.sigma2 == 0.0:
        return mean
    noise = rng.normal(0.0, np.sqrt(model.sigma2), size=np.shape(mean) or None)
    out = mean + noise
    return float(out) if np.ndim(out) == 0 else out
