"""Gaussian approximation of the optimizer diffusions around a minimum.

At a stationary point the mean freezes and the covariance obeys the
Lyapunov-type ODE

    dP/dt = -eta(t) (G P + P G') + w(t) Sigma,      P(0) = 0,

with G the generator (the Hessian for SGD, the lifted 3N x 3N block matrix
for Adam) and w(t) the diffusion multiplier (eta0*eta(t)^2 for SGD,
(c1')^2 eta(t)^2 for Adam).  Its solution has the closed form

    P(t) = integral_0^t  e^{-G (Phi(t)-Phi(s))} Sigma e^{-G' (Phi(t)-Phi(s))} w(s) ds,

Phi being the running area integral of eta.  Both routes are computed: the
ODE by fixed-step RK4 with step halving until two refinements agree, the
closed form by per-segment Gauss-Legendre quadrature with a matrix
exponential at each node (eigendecomposition when G is symmetric,
Pade scaling-and-squaring otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..numerics import gauss_legendre_pieces
from ..schedule import Schedule
from .noise import NoiseModel
from .objectives import Objective

__all__ = [
    "GaussianApprox",
    "gaussian_approx",
    "integrate_covariance_ode",
    "closed_form_covariance",
    "adam_generator",
]


def _segment_breaks(schedule: Schedule, lo: float, hi: float) -> list[float]:
    pts = [lo]
    for seg in schedule.segments:
        if lo < seg.t0 < hi:
            pts.append(seg.t0)
    pts.append(hi)
    return pts


def integrate_covariance_ode(
    G: np.ndarray,
    Sigma: np.ndarray,
    schedule: Schedule,
    scale: float,
    t_grid,
    step0: Optional[float] = None,
    agree_tol: float = 1e-8,
    max_halvings: int = 8,
) -> list[np.ndarray]:
    """RK4 solution of dP/dt = -eta(GP + PG') + scale*eta^2*Sigma on t_grid.

    ``G`` and ``Sigma`` may carry leading batch dimensions (..., n, n).
    The base step is S/2000, halved until two successive refinements agree
    to ``agree_tol`` in max-abs norm over the grid.
    """
    G = np.asarray(G, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    GT = np.swapaxes(G, -1, -2)
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 or t > schedule.S for t in t_grid):
        raise ValueError("t_grid must lie within [0, S]")
    if sorted(t_grid) != t_grid:
        raise ValueError("t_grid must be sorted ascending")
    if step0 is None:
        step0 = schedule.S / 2000.0

    def rhs(t, P):
        # repeated stepping can overshoot the horizon by a few ulps
        eta = schedule.value(min(max(t, 0.0), schedule.S))
        return -eta * (G @ P + P @ GT) + (scale * eta * eta) * Sigma

    def solve(step):
        P = np.zeros_like(Sigma)
        out = []
        t_cur = 0.0
        for t_next in t_grid:
            breaks = _segment_breaks(schedule, t_cur, t_next)
            for lo, hi in zip(breaks[:-1], breaks[1:]):
                span = hi - lo
                if span <= 0:
                    continue
                n = max(1, math.ceil(span / step))
                h = span / n
                t = lo
                for _ in range(n):
                    k1 = rhs(t, P)
                    k2 = rhs(t + 0.5 * h, P + 0.5 * h * k1)
                    k3 = rhs(t + 0.5 * h, P + 0.5 * h * k2)
                    k4 = rhs(t + h, P + h * k3)
                    P = P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    t += h
            out.append(P.copy())
            t_cur = t_next
        return out

    prev = solve(step0)
    for _ in range(max_halvings):
        step0 *= 0.5
        cur = solve(step0)
        err = max(
            float(np.max(np.abs(a - b))) if a.size else 0.0 for a, b in zip(prev, cur)
        )
        prev = cur
        if err <= agree_tol:
            return cur
    return prev


def _phi(schedule: Schedule, t: float) -> float:
    return schedule.integral(0.0, t, "eta")


def closed_form_covariance(
    G: np.ndarray,
    Sigma: np.ndarray,
    schedule: Schedule,
    scale: float,
    t_grid,
    quad_tol: float = 1e-10,
    base_nodes: int = 16,
    max_doublings: int = 6,
) -> list[np.ndarray]:
    """Exact-form covariance on t_grid via quadrature in the area variable.

    Symmetric G uses its eigendecomposition (scalar exponentials per
    eigenvalue pair); general G uses a matrix exponential per quadrature
    node.  Node counts double until two passes agree.
    """
    G = np.asarray(G, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    if G.ndim > 2:
        return [
            np.stack(ps)
            for ps in zip(
                *(
                    closed_form_covariance(
                        G[i], Sigma[i] if Sigma.ndim > 2 else Sigma,
                        schedule, scale, t_grid, quad_tol, base_nodes, max_doublings,
                    )
                    for i in range(G.shape[0])
                )
            )
        ]
    symmetric = np.allclose(G, G.T, atol=1e-12)
    if symmetric:
        lam, U = np.linalg.eigh(G)
        M = U.T @ Sigma @ U
    else:
        from scipy.linalg import expm  # imported on demand: slow, and only needed here

    out = []
    for t in t_grid:
        t = float(t)
        if t == 0.0:
            out.append(np.zeros_like(Sigma))
            continue
        phi_t = _phi(schedule, t)
        breaks = _segment_breaks(schedule, 0.0, t)

        def value(n_nodes):
            nodes, weights = gauss_legendre_pieces(breaks, n_nodes)
            w_s = scale * np.array([schedule.value(s) ** 2 for s in nodes]) * weights
            dphi = phi_t - np.array([_phi(schedule, s) for s in nodes])
            if symmetric:
                # sum_q w_q * exp(-(lam_i + lam_j) dphi_q), assembled in the eigenbasis
                E = np.exp(-np.outer(dphi, lam))  # (q, n)
                I = np.einsum("q,qi,qj->ij", w_s, E, E)
                return U @ (M * I) @ U.T
            P = np.zeros_like(Sigma)
            for q in range(nodes.size):
                if w_s[q] == 0.0:
                    continue
                K = expm(-G * dphi[q])
                P += w_s[q] * (K @ Sigma @ K.T)
            return P

        n = base_nodes
        prev = value(n)
        for _ in range(max_doublings):
            n *= 2
            cur = value(n)
            err = float(np.max(np.abs(cur - prev)))
            prev = cur
            if err <= quad_tol * (1.0 + float(np.max(np.abs(cur)))):
                break
        out.append(prev)
    return out


def adam_generator(
    H: np.ndarray,
    Sigma: np.ndarray,
    c1: float,
    c2: float,
    eps: float,
    dsigma_dx: Optional[np.ndarray] = None,
):
    """Lifted generator and diffusion matrix of the Adam dynamics at a minimum.

    State order is (x, m, v).  ``dsigma_dx`` is the Jacobian of diag(Sigma)
    with respect to x (zero for state-independent noise).
    """
    n = H.shape[0]
    d = np.diag(Sigma)
    J = np.zeros((n, n)) if dsigma_dx is None else np.asarray(dsigma_dx, dtype=float)
    Hhat = np.zeros((3 * n, 3 * n))
    Hhat[0:n, n : 2 * n] = np.diag(1.0 / np.sqrt(d + eps))
    Hhat[n : 2 * n, 0:n] = -c1 * H
    Hhat[n : 2 * n, n : 2 * n] = c1 * np.eye(n)
    Hhat[2 * n :, 0:n] = -c2 * J
    Hhat[2 * n :, 2 * n :] = c2 * np.eye(n)
    Shat = np.zeros((3 * n, 3 * n))
    Shat[n : 2 * n, n : 2 * n] = Sigma
    return Hhat, Shat


@dataclass
class GaussianApprox:
    """Covariance trajectories from both routes, plus the frozen mean."""

    algorithm: str
    t_grid: np.ndarray
    P_ode: list[np.ndarray]
    P_closed: list[np.ndarray]
    mean: np.ndarray
    generator: np.ndarray
    Sigma: np.ndarray
    diffusion_scale: float

    def max_route_gap(self) -> float:
        return max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(self.P_ode, self.P_closed)
        )


def gaussian_approx(
    objective: Objective,
    noise: NoiseModel,
    schedule: Schedule,
    x_star: np.ndarray,
    algorithm: str,
    t_grid,
    eta0: float,
    c1: float = 1.0,
    c2: float = 1.0,
    eps: float = 1e-8,
    ode_tol: float = 1e-8,
    quad_tol: float = 1e-10,
) -> GaussianApprox:
    """Gaussian-approximation covariance of SGD or Adam started at a minimum.

    ``x_star`` must be stationary (gradient norm below 1e-8).  Returns both
    the RK4-integrated and closed-form covariance on ``t_grid``; the two
    agreeing is the built-in consistency check.
    """
    x_star = np.asarray(x_star, dtype=float)
    gnorm = float(np.linalg.norm(objective.gradient(x_star)))
    if gnorm > 1e-8:
        raise ValueError(f"x_star is not stationary: |grad| = {gnorm:.3e}")
    H = objective.hessian_at(x_star)
    if not np.allclose(H, H.T, atol=1e-10):
        raise ValueError("Hessian at x_star is not symmetric")
    if algorithm == "sgd":
        G, S_mat = H, noise.Sigma_g
        scale = eta0
        mean = x_star
    elif algorithm == "adam":
        G, S_mat = adam_generator(H, noise.Sigma_g, c1, c2, eps)
        c1_prime = c1 * math.sqrt(eta0)
        scale = c1_prime * c1_prime
        mean = np.concatenate([x_star, np.zeros_like(x_star), np.diag(noise.Sigma_g)])
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    P_ode = integrate_covariance_ode(G, S_mat, schedule, scale, t_grid, agree_tol=ode_tol)
    P_closed = closed_form_covariance(G, S_mat, schedule, scale, t_grid, quad_tol=quad_tol)
    return GaussianApprox(
        algorithm=algorithm,
        t_grid=np.asarray(list(t_grid), dtype=float),
        P_ode=P_ode,
        P_closed=P_closed,
        mean=mean,
        generator=G,
        Sigma=S_mat,
        diffusion_scale=scale,
    )
