"""Nonlinear growth models for the scalar-input experiment.

M1, M2 and M3 share one mean: exponential growth  a1 * exp(-a2 / x)  below
a change point x0, linear above it, with the linear coefficients pinned by
continuity of the mean and its slope at x0.  The change point is theta's
third entry if it has one (M3, theta = (a1, a2, x0)), else the spec's
``x0_known`` (M2), else +inf, which puts every x on the exponential branch
(M1).  Both functions read that known change point from the ``ModelSpec``,
never the model's name, and neither checks x: a config's interval has
0 < x_min < x_max, and every point a run evaluates lies in it (static draws,
clamped closed forms, cm's bounded search, M3's fit box).  The model
table's growth entry builds a point's information g g^T / sigma2 from the
gradient g, and draws a response as the mean plus N(0, sigma2) noise.
sigma2 is a nuisance parameter: it cancels from every determinant ratio
used by the design criteria, and the least-squares estimate of the mean
parameters does not depend on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .modelspec import ModelSpec


def fixed_change_point(model: ModelSpec) -> float:
    """The change point of a two-parameter theta: the spec's known one, or
    +inf (the exponential branch everywhere) when it holds none."""
    return np.inf if model.x0_known is None else float(model.x0_known)


def _split_x0(model: ModelSpec, theta) -> tuple[float, float, float]:
    theta = np.asarray(theta, dtype=float)
    if theta.size == 3:
        return theta[0], theta[1], theta[2]
    return theta[0], theta[1], fixed_change_point(model)


def growth_mean(model: ModelSpec, theta, x):
    """Mean response at x; scalar in, scalar out, arrays broadcast."""
    x = np.asarray(x, dtype=float)
    a1, a2, x0 = _split_x0(model, theta)
    expo = a1 * np.exp(-a2 / x)
    # branch rule is x >= x0 -> linear, ties go to the linear side
    lin = a1 * np.exp(-a2 / x0) * (1.0 - a2 / x0 + a2 * x / x0**2)
    out = np.where(x >= x0, lin, expo)
    return float(out) if out.ndim == 0 else out


def growth_grad(model: ModelSpec, theta, x):
    """Analytic gradient of growth_mean w.r.t. the reduced parameters.

    Returns shape (d,) for scalar x and x.shape + (d,) for arrays, with d
    the length of theta, filled in place: the exponential-branch columns on
    every point, then the linear-branch columns over the points with
    x >= x0 only (none when x0 = +inf).  A free change point's component is
    identically zero on the exponential branch.  At x == x0 exactly, the
    linear-branch (right) derivative is used, matching the branch rule of
    growth_mean.  The rows of a least-squares Jacobian are these gradients,
    so its normal matrix J^T J divided by sigma2 is the cumulative
    information.
    """
    x = np.asarray(x, dtype=float)
    a1, a2, x0 = _split_x0(model, theta)
    free_x0 = len(theta) == 3
    g = np.empty(x.shape + (len(theta),))
    e_x = np.exp(-a2 / x)
    g[..., 0] = e_x
    g[..., 1] = -a1 * e_x / x
    if free_x0:
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
    if free_x0:
        g[on_lin, 2] = a1 * e0 * ((a2 / x0**2) * phi + (a2 / x0**2 - 2.0 * a2 * x / x0**3))
    return g
