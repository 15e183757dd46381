"""Small numerical utilities shared across modules, and two matrix rules.

Symmetry (:func:`is_symmetric`): a matrix is symmetric when it equals its
transpose or ``max|M - M'| <= SYMMETRY_RTOL * max|M|``, with no absolute floor.

Fixed-block products (:func:`row_product`): BLAS rounds a row of a product
by the product's shape, not by the row's values alone (numpy's gemv for one
row rounds apart from gemm, and at some inner dims a gemm row rounds by the
row count).  ``row_product`` multiplies ``ROW_BLOCK`` rows at a time, the
last block zero-padded, so a row's result depends on neither the row count
nor the row's offset.  Every result whose rows must not depend on their
neighbours (a path's gradient or noise, a node's exponential) uses it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["adaptive_simpson", "gauss_legendre_nodes", "is_symmetric", "row_product"]

SYMMETRY_RTOL = 1e-12
ROW_BLOCK = 32


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, max_intervals: int = 10**6) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    Classic bisection scheme with the |S2 - S1|/15 Richardson error
    estimate.  ``tol`` is an absolute tolerance; the recursion stops when
    the local estimate is within the locally apportioned tolerance.
    ``max_intervals`` caps the total number of subintervals examined.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_intervals)
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    # stack entries: (a, fa, b, fb, m, fm, whole, tol)
    stack = [(a, fa, b, fb, m, fm, whole, tol)]
    total = 0.0
    used = 1
    while stack:
        a0, fa0, b0, fb0, m0, fm0, whole0, tol0 = stack.pop()
        lm, flm, left = _simpson(f, a0, fa0, m0, fm0)
        rm, frm, right = _simpson(f, m0, fm0, b0, fb0)
        delta = left + right - whole0
        if abs(delta) <= 15.0 * tol0:
            total += left + right + delta / 15.0
            continue
        used += 2
        if used > max_intervals:
            raise RuntimeError(
                f"adaptive_simpson exceeded {max_intervals} subintervals on [{a}, {b}]"
            )
        half = 0.5 * tol0
        stack.append((a0, fa0, m0, fm0, lm, flm, left, half))
        stack.append((m0, fm0, b0, fb0, rm, frm, right, half))
    return total

@functools.cache
def gauss_legendre_nodes(n: int):
    """Gauss-Legendre nodes and weights of order n on [-1, 1], computed once per n."""
    return np.polynomial.legendre.leggauss(n)


def is_symmetric(M) -> bool:
    """Whether every matrix of the stack ``M`` (..., n, n) equals its
    transpose or is within ``SYMMETRY_RTOL * max|M|`` of it (NaN fails)."""
    M = np.asarray(M, dtype=float)
    MT = np.swapaxes(M, -1, -2)
    with np.errstate(invalid="ignore"):
        gap = np.max(np.abs(M - MT), axis=(-2, -1), initial=0.0)
        size = np.max(np.abs(M), axis=(-2, -1), initial=0.0)
        return bool(np.all(np.all(M == MT, axis=(-2, -1)) | (gap <= SYMMETRY_RTOL * size)))


def row_product(x, M) -> np.ndarray:
    """``x @ M`` for ``x`` of shape (..., r, k), or (k,) for one row, and ``M``
    of shape (..., k, m), leading axes broadcast as in ``np.matmul``,
    ``ROW_BLOCK`` rows at a time, the last block zero-padded."""
    x, M = np.asarray(x, dtype=float), np.asarray(M, dtype=float)
    if x.ndim == 1:
        return row_product(x[None], M)[..., 0, :]
    r, k = x.shape[-2:]
    full, rest = divmod(r, ROW_BLOCK)
    batch = np.broadcast_shapes(x.shape[:-2], M.shape[:-2])
    out = np.empty(batch + (full + (rest > 0), ROW_BLOCK, M.shape[-1]))
    rows = x[..., : r - rest, :].reshape(x.shape[:-2] + (full, ROW_BLOCK, k))
    np.matmul(rows, M[..., None, :, :], out=out[..., :full, :, :])
    if rest:
        tail = np.zeros(x.shape[:-2] + (ROW_BLOCK, k))
        tail[..., :rest, :] = x[..., r - rest :, :]
        np.matmul(tail, M, out=out[..., full, :, :])
    return out.reshape(batch + (-1, M.shape[-1]))[..., :r, :]
