"""Logistic model for the 2x2 factorial experiment with binary response.

Both inputs are coded -1/+1, so the experiment space is the four level
combinations.  The fixed row order used everywhere in the package is

    (+1, +1), (+1, -1), (-1, +1), (-1, -1)

i.e. row index r = 1 corresponds to x1 = +1 and column index s = 1 to
x2 = +1.  All closed-form allocation formulas depend on this convention.

The cell probabilities and weights are lists of Python floats (wrap one in
``np.array`` for an array), and the cell-table information is computed on
them: on four cells numpy's per-call cost, not the arithmetic, would set
the time.  The linear predictors are float sums b0 +- b1 +- b2, in the
order of the matrix product ``X_CELLS @ beta``, so they are its doubles.
The one exp over the four cells stays numpy's: ``math.exp`` differs from it
in the last bit on some inputs, and every cell weight, the information, its
determinant and cm's choice would move with it.
"""

from __future__ import annotations

import math

import numpy as np

#: the four level combinations in the fixed (r, s) order
LEVEL_POINTS: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: design matrix with rows (1, x1, x2) in the fixed order
X_CELLS = np.array([[1.0, x1, x2] for x1, x2 in LEVEL_POINTS])

#: per-cell rank-one matrices x x^T, shape (4, 3, 3)
XXT_CELLS = np.einsum("ci,cj->cij", X_CELLS, X_CELLS)

_CELL_INDEX = {p: i for i, p in enumerate(LEVEL_POINTS)}


def cell_index(point) -> int:
    """Position of a level pair (ints, floats or numpy scalars) in the row order."""
    try:
        return _CELL_INDEX[tuple(point)]
    except (KeyError, TypeError):
        raise ValueError(f"not a coded level combination: {point!r}") from None


def cell_probs(beta) -> list[float]:
    """Success probabilities at the linear predictors b0 + b1*x1 + b2*x2,
    as a list of four Python floats in the row order."""
    b0, b1, b2 = np.asarray(beta, dtype=float).tolist()
    etas = (b0 + b1 + b2, b0 + b1 - b2, b0 - b1 + b2, b0 - b1 - b2)
    # one exp of -|eta| per cell, which cannot overflow: p = 1/(1+e) for
    # eta >= 0, else e/(1+e)
    return [1.0 / (1.0 + e) if h >= 0.0 else e / (1.0 + e)
            for h, e in zip(etas, np.exp([-abs(h) for h in etas]).tolist())]


def cell_weights(beta) -> list[float]:
    """Bernoulli variances pi*(1-pi) for the four cells, each in [0, 0.25],
    as a list of Python floats in the row order."""
    return [p * (1.0 - p) for p in cell_probs(beta)]


def sigmoid_scalar(eta: float) -> float:
    """Overflow-safe logistic function of a plain float."""
    if eta >= 0.0:
        return 1.0 / (1.0 + math.exp(-eta))
    ex = math.exp(eta)
    return ex / (1.0 + ex)


def weight_at_eta(eta: float) -> float:
    """Bernoulli variance pi*(1-pi) at a linear-predictor value."""
    p = sigmoid_scalar(eta)
    return p * (1.0 - p)


def log_weight_at_eta(eta: float) -> float:
    """log pi*(1-pi) at a linear-predictor value, finite for any finite eta."""
    a = abs(eta)
    return -a - 2.0 * math.log1p(math.exp(-a))


def fisher_from_counts(counts, beta) -> np.ndarray:
    """Total information sum_c n_c * w_c * x_c x_c^T from per-cell counts.
    x_c's entries are +-1, so each entry is a signed sum of n_c * w_c."""
    n0, n1, n2, n3 = counts
    w0, w1, w2, w3 = cell_weights(beta)
    c0, c1, c2, c3 = n0 * w0, n1 * w1, n2 * w2, n3 * w3   # summed in cell order
    s, s1 = c0 + c1 + c2 + c3, c0 + c1 - c2 - c3
    s2, s12 = c0 - c1 + c2 - c3, c0 - c1 - c2 + c3
    return np.array((s, s1, s2, s1, s, s12, s2, s12, s)).reshape(3, 3)
