"""Small numerical utilities shared across modules."""

from __future__ import annotations

import functools

__all__ = ["adaptive_simpson", "gauss_legendre_nodes"]


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
    import numpy as np

    return np.polynomial.legendre.leggauss(n)
