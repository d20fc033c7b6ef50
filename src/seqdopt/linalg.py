"""Small dense symmetric-matrix utilities used in the design loops.

Information matrices in this package are 2x2 or 3x3, so determinants use the
closed cofactor formulas, one matrix (on Python floats, which at this size
cost less than numpy's per-call overhead) or a stack at a time.
"""

from __future__ import annotations

import numpy as np


def det_sym(a: np.ndarray) -> float:
    """Cofactor determinant of a 2x2 or 3x3 matrix (another 2-D shape raises
    ValueError); at 3x3, `det_sym_batch`'s products in its order, so the
    same double."""
    rows = np.asarray(a, dtype=float).tolist()
    if len(rows) == 2:
        (a00, a01), (a10, a11) = rows
        return a00 * a11 - a01 * a10
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    return (a00 * (a11 * a22 - a12 * a21)
            - a01 * (a10 * a22 - a12 * a20)
            + a02 * (a10 * a21 - a11 * a20))


def det_sym_batch(a: np.ndarray) -> np.ndarray:
    """Vectorized 3x3 `det_sym` over a stack of matrices shaped (..., 3, 3)."""
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing dims 3x3, got {a.shape}")
    return (
        a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
        - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
        + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
    )
