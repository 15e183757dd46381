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

import numpy as np

from ..numerics import gauss_legendre_nodes
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

# RK4: the base step is S/ODE_BASE_STEPS, halved up to ODE_MAX_HALVINGS times
# until two successive solutions agree to ODE_TOL in max-abs norm.
ODE_BASE_STEPS = 2000
ODE_TOL = 1e-8
ODE_MAX_HALVINGS = 8
# Closed form: QUAD_BASE_NODES Gauss-Legendre nodes per segment piece, doubled
# up to QUAD_MAX_DOUBLINGS times until two passes agree to
# QUAD_TOL * (1 + max|P|) for every system of the batch.
QUAD_BASE_NODES = 16
QUAD_TOL = 1e-10
QUAD_MAX_DOUBLINGS = 6


def integrate_covariance_ode(
    G: np.ndarray,
    Sigma: np.ndarray,
    schedule: Schedule,
    scale: float,
    t_grid,
) -> list[np.ndarray]:
    """RK4 solution of dP/dt = -eta(GP + PG') + scale*eta^2*Sigma on t_grid.

    ``G`` and ``Sigma`` may carry leading batch dimensions (..., n, n).
    Steps never straddle a segment joint: each piece of [0, t] inside one
    segment takes its rates from that segment.
    """
    G = np.asarray(G, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    GT = np.swapaxes(G, -1, -2)
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 or t > schedule.S for t in t_grid):
        raise ValueError("t_grid must lie within [0, S]")
    if sorted(t_grid) != t_grid:
        raise ValueError("t_grid must be sorted ascending")

    def rhs(eta, P):
        return -eta * (G @ P + P @ GT) + (scale * eta * eta) * Sigma

    def solve(step):
        P = np.zeros_like(Sigma)
        out = []
        t_cur = 0.0
        for t_next in t_grid:
            for seg in schedule.segments:
                lo, hi = max(t_cur, seg.t0), min(t_next, seg.t1)
                if not lo < hi:
                    continue
                n = max(1, math.ceil((hi - lo) / step))
                h = (hi - lo) / n
                t = lo
                for _ in range(n):
                    eta_mid = seg.value(t + 0.5 * h)
                    k1 = rhs(seg.value(t), P)
                    k2 = rhs(eta_mid, P + 0.5 * h * k1)
                    k3 = rhs(eta_mid, P + 0.5 * h * k2)
                    k4 = rhs(seg.value(t + h), P + h * k3)
                    P = P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    t += h
            out.append(P.copy())
            t_cur = t_next
        return out

    step = schedule.S / ODE_BASE_STEPS
    prev = solve(step)
    for _ in range(ODE_MAX_HALVINGS):
        step *= 0.5
        cur = solve(step)
        err = max(
            float(np.max(np.abs(a - b))) if a.size else 0.0 for a, b in zip(prev, cur)
        )
        prev = cur
        if err <= ODE_TOL:
            return cur
    return prev


def closed_form_covariance(
    G: np.ndarray,
    Sigma: np.ndarray,
    schedule: Schedule,
    scale: float,
    t_grid,
) -> list[np.ndarray]:
    """Exact-form covariance on t_grid via quadrature in the area variable.

    ``G`` and ``Sigma`` may carry leading batch dimensions (..., n, n).
    Symmetric G uses its eigendecomposition (scalar exponentials per
    eigenvalue pair); general G uses a matrix exponential per quadrature
    node.  Each segment piece of [0, t] gets its own nodes, and node counts
    double until two passes agree for the whole batch.
    """
    G = np.asarray(G, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    t_grid = [float(t) for t in t_grid]
    if any(not 0.0 <= t <= schedule.S for t in t_grid):
        raise ValueError("t_grid must lie within [0, S]")
    symmetric = np.allclose(G, np.swapaxes(G, -1, -2), atol=1e-12)
    if symmetric:
        lam, U = np.linalg.eigh(G)
        UT = np.swapaxes(U, -1, -2)
        M = UT @ Sigma @ U
    else:
        from scipy.linalg import expm  # imported on demand: slow, and only needed here
    zero = np.zeros(np.broadcast_shapes(G.shape, Sigma.shape))

    out = []
    for t in t_grid:
        if t == 0.0:
            out.append(zero.copy())
            continue
        # Phi at each piece's start, summed segment by segment as
        # Schedule.integral adds them
        pieces, phi_t = [], 0.0
        for seg in schedule.segments:
            if seg.t0 >= t:
                break
            hi = min(t, seg.t1)
            pieces.append((seg, hi, phi_t))
            phi_t += seg.integral(seg.t0, hi, "eta")

        def value(n_nodes):
            x, w = gauss_legendre_nodes(n_nodes)
            w_s, dphi = [], []
            for seg, hi, phi0 in pieces:
                half = 0.5 * (hi - seg.t0)
                nodes = half * (x + 1.0) + seg.t0
                w_s.append(scale * seg.value(nodes) ** 2 * (half * w))
                dphi.append(phi_t - (phi0 + seg.integral(seg.t0, nodes, "eta")))
            w_s, dphi = np.concatenate(w_s), np.concatenate(dphi)
            if symmetric:
                # sum_q w_q * exp(-(lam_i + lam_j) dphi_q), assembled in the eigenbasis
                E = np.exp(-np.multiply.outer(dphi, lam))  # (q, ..., n)
                I = np.einsum("q,q...i,q...j->...ij", w_s, E, E)
                return U @ (M * I) @ UT
            P = zero.copy()
            for q in np.flatnonzero(w_s):
                K = expm(-G * dphi[q])
                P += w_s[q] * (K @ Sigma @ np.swapaxes(K, -1, -2))
            return P

        n = QUAD_BASE_NODES
        prev = value(n)
        for _ in range(QUAD_MAX_DOUBLINGS):
            n *= 2
            cur = value(n)
            err = np.max(np.abs(cur - prev), axis=(-2, -1))
            prev = cur
            if np.all(err <= QUAD_TOL * (1.0 + np.max(np.abs(cur), axis=(-2, -1)))):
                break
        out.append(prev)
    return out


def adam_generator(H: np.ndarray, Sigma: np.ndarray, c1: float, c2: float, eps: float):
    """Lifted generator and diffusion matrix of the Adam dynamics at a minimum.

    State order is (x, m, v).  Noise is state-independent, so the block
    coupling v to x is zero.
    """
    n = H.shape[0]
    d = np.diag(Sigma)
    Hhat = np.zeros((3 * n, 3 * n))
    Hhat[0:n, n : 2 * n] = np.diag(1.0 / np.sqrt(d + eps))
    Hhat[n : 2 * n, 0:n] = -c1 * H
    Hhat[n : 2 * n, n : 2 * n] = c1 * np.eye(n)
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
    P_ode = integrate_covariance_ode(G, S_mat, schedule, scale, t_grid)
    P_closed = closed_form_covariance(G, S_mat, schedule, scale, t_grid)
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
