"""Small dense symmetric-matrix utilities used in the design and fit loops.

Information and normal matrices in this package are 2x2 or 3x3, so
determinants and linear solves use the closed cofactor formulas, one matrix
(on Python floats, which at this size cost less than numpy's per-call
overhead) or a stack at a time.
"""

from __future__ import annotations

import math

import numpy as np


def det_sym(a: np.ndarray) -> float:
    """Cofactor determinant of a 2x2 or 3x3 float array (another 2-D shape
    raises ValueError); at 3x3, `det_sym_batch`'s products in its order, so
    the same double."""
    rows = a.tolist()
    if len(rows) == 2:
        (a00, a01), (a10, a11) = rows
        return a00 * a11 - a01 * a10
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    return (a00 * (a11 * a22 - a12 * a21)
            - a01 * (a10 * a22 - a12 * a20)
            + a02 * (a10 * a21 - a11 * a20))


def solve_sym(a, b) -> list[float] | None:
    """Cofactor (Cramer) solution of the symmetric 2x2 or 3x3 system a x = b.

    `a` holds rows of Python floats, of which only the upper triangle is
    read, and `b` a list of floats.  Returns x as a list of floats, or None
    when the determinant is zero or not finite: a singular or overflowed
    system has no solution to report.
    """
    if len(b) == 2:
        (a00, a01), (_, a11) = a
        b0, b1 = b
        det = a00 * a11 - a01 * a01
        if det == 0.0 or not math.isfinite(det):
            return None
        return [(a11 * b0 - a01 * b1) / det, (a00 * b1 - a01 * b0) / det]
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
    b0, b1, b2 = b
    c00 = a11 * a22 - a12 * a12
    c01 = a02 * a12 - a01 * a22
    c02 = a01 * a12 - a02 * a11
    det = a00 * c00 + a01 * c01 + a02 * c02
    if det == 0.0 or not math.isfinite(det):
        return None
    c11 = a00 * a22 - a02 * a02
    c12 = a01 * a02 - a00 * a12
    c22 = a00 * a11 - a01 * a01
    return [(c00 * b0 + c01 * b1 + c02 * b2) / det,
            (c01 * b0 + c11 * b1 + c12 * b2) / det,
            (c02 * b0 + c12 * b1 + c22 * b2) / det]


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
