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

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .modelspec import ModelSpec


def fixed_change_point(model: ModelSpec) -> float:
    """The change point of a two-parameter theta: the spec's known one, or
    +inf (the exponential branch everywhere) when it holds none."""
    return np.inf if model.x0_known is None else float(model.x0_known)


def _split_x0(model: ModelSpec, theta) -> tuple[float, float, float]:
    # Python floats: the scalar arithmetic on them is cheaper than on numpy's
    theta = np.asarray(theta, dtype=float).tolist()
    if len(theta) == 3:
        return tuple(theta)
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
    every point, then the linear-branch rows over the points with x >= x0
    only (none when x0 = +inf).  A free change point's component is
    identically zero on the exponential branch.  On the linear branch every
    column is affine in x, alpha_k + beta_k * x, so the coefficients are
    computed once per call on Python floats and the rows filled by one
    broadcast; with u = a2/x0 and c = 1 - u they are
    (e0 c, e0 u/x0), (a1 e0 (u - 2)/x0, a1 e0 c/x0^2) and, for a free
    change point, alpha_3 = a1 e0 u (2 - u)/x0 and beta_3 = -alpha_3/x0.
    Scalar and array x share this arithmetic, so they give the same bits.
    At x == x0 exactly, the linear-branch (right) derivative is used,
    matching the branch rule of growth_mean.  The rows of a least-squares
    Jacobian are these gradients, so its normal matrix J^T J divided by
    sigma2 is the cumulative information.
    """
    x = np.asarray(x, dtype=float)
    a1, a2, x0 = _split_x0(model, theta)
    d = len(theta)
    g = np.empty(x.shape + (d,))
    e_x = np.exp(-a2 / x)
    g[..., 0] = e_x
    g[..., 1] = -a1 * e_x / x
    if d == 3:
        g[..., 2] = 0.0
    on_lin = x >= x0
    if x.ndim:
        x = x[on_lin, None]
    elif on_lin:
        on_lin = ...   # a scalar on the linear branch fills the whole row
    else:
        return g
    u = a2 / x0
    e0 = math.exp(-u)
    c = 1.0 - u
    ae = a1 * e0 / x0
    alpha = [e0 * c, ae * (u - 2.0)]
    beta = [e0 * u / x0, ae * c / x0]
    if d == 3:
        alpha.append(ae * u * (2.0 - u))
        beta.append(-alpha[2] / x0)
    g[on_lin] = np.add(alpha, np.multiply(beta, x))
    return g
