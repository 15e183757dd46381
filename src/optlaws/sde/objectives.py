"""Desk-scale test objectives with gradients, Hessians and known constants."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ..numerics import is_symmetric, row_product

__all__ = ["Objective", "quadratic", "double_well", "rosenbrock"]


@dataclass(frozen=True)
class Objective:
    """A smooth test function on R^dim.

    ``value`` and ``gradient`` accept arrays of shape (..., dim) and act on
    the last axis so ensembles of iterates evaluate in one call.
    ``hessian_at`` takes a single point.  ``L`` bounds the gradient's
    Lipschitz constant and ``ell`` the gradient norm; for non-quadratic
    objectives both hold on the box |x_i| <= box only.
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian_at: Callable[[np.ndarray], np.ndarray]
    L: float
    f_min: Optional[float] = None
    ell: Optional[float] = None
    x_star: Optional[np.ndarray] = None
    box: Optional[float] = None


def quadratic(H: np.ndarray) -> Objective:
    """f(x) = x' H x / 2 for symmetric positive semidefinite H."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] == 0:
        raise ValueError("H must be a nonempty square matrix")
    if not is_symmetric(H):
        raise ValueError("H must be symmetric")
    dim = H.shape[0]
    eigs = np.linalg.eigvalsh(H)
    if eigs[0] < -1e-12:
        raise ValueError("H must be positive semidefinite")

    def value(x):
        return 0.5 * np.einsum("...i,ij,...j->...", x, H, x)

    return Objective(
        name="quadratic",
        dim=dim,
        value=value,
        gradient=lambda x: row_product(x, H),
        hessian_at=lambda x: H.copy(),
        L=float(eigs[-1]),
        f_min=0.0,
        x_star=np.zeros(dim),
    )


def isotropic_quadratic(dim: int, lam: float = 1.0) -> Objective:
    """f(x) = lam * ||x||^2 / 2, with the gradient ``lam * x``: the same bits
    as the product with ``lam * I``, without the matrix product."""
    lam = float(lam)
    return replace(quadratic(lam * np.eye(dim)), gradient=lambda x: lam * x)


def double_well(dim: int, box: float = 2.0) -> Objective:
    """Separable double well f(x) = sum_i (x_i^2 - 1)^2.

    Minima at every sign vector (+-1, ..., +-1) with f = 0.  The gradient
    is only locally Lipschitz; L and ell are valid on |x_i| <= box.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if box < 1.0:
        raise ValueError("box must contain the minima (box >= 1)")

    def value(x):
        return np.sum((x * x - 1.0) ** 2, axis=-1)

    def gradient(x):
        return 4.0 * x * (x * x - 1.0)

    def hessian_at(x):
        return np.diag(12.0 * x * x - 4.0)

    grad_comp = 4.0 * box * (box * box - 1.0)
    return Objective(
        name="double_well",
        dim=dim,
        value=value,
        gradient=gradient,
        hessian_at=hessian_at,
        L=float(12.0 * box * box - 4.0),
        f_min=0.0,
        ell=float(grad_comp * np.sqrt(dim)),
        x_star=np.ones(dim),
        box=box,
    )


def rosenbrock(dim: int, box: float = 2.0) -> Objective:
    """Chained Rosenbrock sum_i 100(x_{i+1} - x_i^2)^2 + (1 - x_i)^2."""
    if dim < 2:
        raise ValueError("rosenbrock needs dim >= 2")

    def value(x):
        a = x[..., 1:] - x[..., :-1] ** 2
        b = 1.0 - x[..., :-1]
        return np.sum(100.0 * a * a + b * b, axis=-1)

    def gradient(x):
        g = np.zeros_like(x)
        a = x[..., 1:] - x[..., :-1] ** 2
        g[..., :-1] += -400.0 * x[..., :-1] * a - 2.0 * (1.0 - x[..., :-1])
        g[..., 1:] += 200.0 * a
        return g

    def hessian_at(x):
        h = np.zeros((dim, dim))
        for i in range(dim - 1):
            h[i, i] += -400.0 * (x[i + 1] - 3.0 * x[i] ** 2) + 2.0
            h[i, i + 1] += -400.0 * x[i]
            h[i + 1, i] += -400.0 * x[i]
            h[i + 1, i + 1] += 200.0
        return h

    # Crude curvature bound on the box; enough for reporting purposes.
    L = float(400.0 * (3.0 * box * box + box) + 202.0)
    return Objective(
        name="rosenbrock",
        dim=dim,
        value=value,
        gradient=gradient,
        hessian_at=hessian_at,
        L=L,
        f_min=0.0,
        x_star=np.ones(dim),
        box=box,
    )
