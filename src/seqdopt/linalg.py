"""Small dense symmetric-matrix utilities used in the design loops.

Information matrices in this package are 2x2 or 3x3, so determinants use the
closed cofactor formulas and the Cholesky factorization is a plain triple
loop.  No general n-by-n linear algebra is attempted.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

CHOLESKY_PIVOT_TOL = 1e-12


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


def cholesky_spd(a: np.ndarray, tol: float = CHOLESKY_PIVOT_TOL) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == a.

    Raises SingularMatrix when a pivot falls at or below `tol`; in this
    package a failed factorization is a diagnostic, not a recoverable state.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    lower = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j] - lower[i, :j] @ lower[j, :j]
            if i == j:
                if s <= tol:
                    raise SingularMatrix(f"pivot {s:.3e} <= {tol:.0e} at row {i}")
                lower[i, i] = np.sqrt(s)
            else:
                lower[i, j] = s / lower[j, j]
    return lower


def central_diff_gradient(f, theta, h: float | None = None) -> np.ndarray:
    """Central finite-difference gradient of a scalar function.

    Component k uses step h_k = 1e-6 * max(1, |theta_k|) unless `h` is given.
    This is the independent oracle against which analytic gradients are
    checked, so it deliberately shares no code with them.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for k in range(theta.size):
        hk = h if h is not None else 1e-6 * max(1.0, abs(theta[k]))
        up = theta.copy()
        dn = theta.copy()
        up[k] += hk
        dn[k] -= hk
        grad[k] = (f(up) - f(dn)) / (2.0 * hk)
    return grad
