"""Small dense symmetric-matrix utilities used in the design loops.

Information matrices in this package are 2x2 or 3x3, so determinants use the
closed cofactor formulas, one matrix or a stack at a time.
"""

from __future__ import annotations

import numpy as np


def det_sym(a: np.ndarray) -> float:
    """Determinant of a 2x2 or 3x3 matrix via the cofactor formula."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d) or d not in (2, 3):
        raise ValueError(f"expected a 2x2 or 3x3 matrix, got shape {a.shape}")
    if d == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def det_sym_batch(a: np.ndarray) -> np.ndarray:
    """Vectorized `det_sym` over a stack of matrices shaped (..., d, d)."""
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if d == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if d == 3:
        return (
            a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
        )
    raise ValueError(f"expected trailing dims 2x2 or 3x3, got {a.shape}")
