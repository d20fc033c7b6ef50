"""Logistic model for the 2x2 factorial experiment with binary response.

Both inputs are coded -1/+1, so the experiment space is the four level
combinations.  The fixed row order used everywhere in the package is

    (+1, +1), (+1, -1), (-1, +1), (-1, -1)

i.e. row index r = 1 corresponds to x1 = +1 and column index s = 1 to
x2 = +1.  All closed-form allocation formulas depend on this convention.
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
    """Position of a coded level pair in the fixed row order."""
    key = (int(point[0]), int(point[1]))
    if key not in _CELL_INDEX:
        raise ValueError(f"not a coded level combination: {point!r}")
    return _CELL_INDEX[key]


def _sigmoid(eta):
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def cell_probs(beta) -> np.ndarray:
    """Success probabilities at the linear predictors b0 + b1*x1 + b2*x2."""
    return _sigmoid(X_CELLS @ np.asarray(beta, dtype=float))


def cell_weights(beta) -> np.ndarray:
    """Bernoulli variances pi*(1-pi) for the four cells, each in (0, 0.25]."""
    p = cell_probs(beta)
    return p * (1.0 - p)


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


def success_prob(beta, point) -> float:
    """P(Y=1) at one level combination, overflow-safe for |eta| up to ~700."""
    return float(cell_probs(beta)[cell_index(point)])


def bernoulli_weight(beta, point) -> float:
    return float(cell_weights(beta)[cell_index(point)])


def fisher_info_glm(beta, point) -> np.ndarray:
    """Single-trial information w * x x^T (rank one, PSD), x = (1, x1, x2)."""
    c = cell_index(point)
    return bernoulli_weight(beta, point) * XXT_CELLS[c]


def fisher_from_counts(counts, beta) -> np.ndarray:
    """Total information sum_c n_c * w_c * x_c x_c^T from per-cell counts."""
    counts = np.asarray(counts, dtype=float)
    w = cell_weights(beta)
    return np.einsum("c,cij->ij", counts * w, XXT_CELLS)


def simulate_binary(beta, point, rng: np.random.Generator) -> int:
    """One Bernoulli draw at a level combination."""
    return int(rng.random() < success_prob(beta, point))
