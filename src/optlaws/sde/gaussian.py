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

The ODE is linear in P, so one RK4 step is a polynomial in the operator
L(P) = G P + P G':

    P_next = sum_{j=0..4} a_j L^j(P) + sum_{j=0..3} b_j L^j(Sigma),

with a_j, b_j set by the step size and the rates at the step's start,
midpoint and end.  They come from running the RK4 stages on coefficient
vectors, for all steps of a chunk at once.  Left and right products
commute, so L^j(P) = sum_k C(j, k) G^k P G'^(j-k) and the step folds into

    P_next = sum_{k=0..4} G^k P M_k' + U,    M_k = sum_l a_{k+l} C(k+l, k) G^l,

two matrix products and an add per step.  M_k' and U are built for
ODE_CHUNK_BYTES worth of steps at a time, which bounds the route's memory.
No eigendecomposition or matrix exponential enters, so the ODE route stays
independent of the closed form.
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
# The folded step matrices M_k' and U of ODE_CHUNK_BYTES worth of steps are
# built at a time.  _ODE_STEP_WORDS bounds the per-step words of the rates
# and of the RK4 coefficient recursion on top of the matrices (about 80 by
# tracemalloc; twice that keeps the peak under the budget).
ODE_CHUNK_BYTES = 4 * 2**20
_ODE_STEP_WORDS = 160
# M_k = sum_l a_{k+l} C(k+l, k) G^l: the power of L read by entry (k, l)
# and its binomial weight (zero past RK4's degree 4).
_FOLD_POWER = np.array([[min(k + l, 4) for l in range(5)] for k in range(5)])
_FOLD_BINOM = np.array(
    [[math.comb(k + l, k) if k + l <= 4 else 0 for l in range(5)] for k in range(5)],
    dtype=float,
)
# Closed form: QUAD_BASE_NODES Gauss-Legendre nodes per segment piece, doubled
# up to QUAD_MAX_DOUBLINGS times until two passes agree to
# QUAD_TOL * (1 + max|P|) for every system of the batch.
QUAD_BASE_NODES = 16
QUAD_TOL = 1e-10
QUAD_MAX_DOUBLINGS = 6


def _rk4_coefficients(h, eta_lo, eta_mid, eta_hi, scale):
    """One RK4 step of dP/dt = -eta L(P) + scale*eta^2*Sigma, as polynomials in L.

    The rates are arrays with one entry per step.  Row s of the result
    holds the step's coefficients: ``[s, 0, j]`` multiplies L^j(P) and
    ``[s, 1, j]`` multiplies L^j(Sigma) in P_next (``[s, 1, 4]`` is 0).
    """

    def rhs(eta, y):
        k = np.zeros_like(y)
        k[..., 1:] = y[..., :-1]  # apply L: raise every power by one
        k *= -eta[:, None, None]
        k[:, 1, 0] += scale * eta * eta
        return k

    y = np.zeros((eta_lo.size, 2, 5))
    y[:, 0, 0] = 1.0
    k1 = rhs(eta_lo, y)
    k2 = rhs(eta_mid, y + 0.5 * h * k1)
    k3 = rhs(eta_mid, y + 0.5 * h * k2)
    k4 = rhs(eta_hi, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _grid_times(t_grid, schedule: Schedule) -> list[float]:
    """The grid as floats, each checked to lie in [0, S] (a NaN does not)."""
    t_grid = [float(t) for t in t_grid]
    if any(not 0.0 <= t <= schedule.S for t in t_grid):
        raise ValueError("t_grid must lie within [0, S]")
    return t_grid


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
    segment takes its rates from that segment.  Each step is applied in
    its folded form P_next = sum_k G^k P M_k' + U (see the module
    docstring).
    """
    G = np.asarray(G, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    t_grid = _grid_times(t_grid, schedule)
    if sorted(t_grid) != t_grid:
        raise ValueError("t_grid must be sorted ascending")
    shape = np.broadcast_shapes(G.shape, Sigma.shape)
    n, n_sys = shape[-1], math.prod(shape[:-2])
    G = np.broadcast_to(G, shape).reshape(n_sys, n, n)
    Sigma = np.broadcast_to(Sigma, shape).reshape(n_sys, n, n)
    # G^0..G^4 side by side, their transposes as rows, and L^0..L^3 of Sigma
    pows = [np.broadcast_to(np.eye(n), G.shape)]
    for _ in range(4):
        pows.append(pows[-1] @ G)
    Gcat = np.concatenate(pows, axis=-1)
    powT = np.swapaxes(np.stack(pows, axis=1), -1, -2).reshape(n_sys, 5, n * n)
    LS = [Sigma]
    for _ in range(3):
        LS.append(G @ LS[-1] + LS[-1] @ np.swapaxes(G, -1, -2))
    LS = np.stack(LS).reshape(4, n_sys * n * n)
    chunk = max(1, ODE_CHUNK_BYTES // (8 * (6 * n_sys * n * n + _ODE_STEP_WORDS)))
    B = np.empty((n_sys, 5, n, n))

    def advance(P, seg, t, h, c):
        """Take c steps of size h from time t, in place on P; return the end time."""
        ts = np.add.accumulate(np.r_[t, np.full(c, h)])  # t, t+h, ... as t += h makes them
        eta = seg.value(np.concatenate([ts, ts[:-1] + 0.5 * h]))
        y = _rk4_coefficients(h, eta[:c], eta[c + 1 :], eta[1 : c + 1], scale)
        MT = ((y[:, 0, _FOLD_POWER] * _FOLD_BINOM)[:, None] @ powT).reshape(c, n_sys, 5, n, n)
        U = (y[:, 1, :4] @ LS).reshape(c, n_sys, n, n)
        Pv, Bv = P[:, None], B.reshape(n_sys, 5 * n, n)
        for s in range(c):
            np.matmul(Pv, MT[s], out=B)  # P M_k' for k = 0..4
            np.matmul(Gcat, Bv, out=P)  # sum_k G^k P M_k'
            P += U[s]
        return ts[-1]

    def solve(step):
        P = np.zeros((n_sys, n, n))
        out = []
        t_cur = 0.0
        for t_next in t_grid:
            for seg, lo, hi in schedule.pieces(t_cur, t_next):
                n_steps = max(1, math.ceil((hi - lo) / step))
                h = (hi - lo) / n_steps
                t = lo
                for start in range(0, n_steps, chunk):
                    t = advance(P, seg, t, h, min(chunk, n_steps - start))
            out.append(P.reshape(shape).copy())
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
    node, all nodes in one call.  Each segment piece of [0, t] gets its own
    nodes, and node counts double until two passes agree for the whole batch.
    """
    G = np.asarray(G, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    t_grid = _grid_times(t_grid, schedule)
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
        for seg, lo, hi in schedule.pieces(0.0, t):
            pieces.append((seg, lo, hi, phi_t))
            phi_t += seg.integral(lo, hi, "eta")

        def value(n_nodes):
            x, w = gauss_legendre_nodes(n_nodes)
            w_s, dphi = [], []
            for seg, lo, hi, phi0 in pieces:
                half = 0.5 * (hi - lo)
                nodes = half * (x + 1.0) + lo
                w_s.append(scale * seg.value(nodes) ** 2 * (half * w))
                dphi.append(phi_t - (phi0 + seg.integral(lo, nodes, "eta")))
            w_s, dphi = np.concatenate(w_s), np.concatenate(dphi)
            if symmetric:
                # sum_q w_q * exp(-(lam_i + lam_j) dphi_q), assembled in the eigenbasis
                E = np.exp(-np.multiply.outer(dphi, lam))  # (q, ..., n)
                I = np.einsum("q,q...i,q...j->...ij", w_s, E, E)
                return U @ (M * I) @ UT
            # one expm call on the stack of nodes; the terms are added to P in
            # node order, so P is the per-node sum bit for bit
            q = np.flatnonzero(w_s)
            node = (-1,) + (1,) * zero.ndim  # a node axis ahead of the batch axes
            K = expm(-G * dphi[q].reshape(node))
            terms = w_s[q].reshape(node) * (K @ Sigma @ np.swapaxes(K, -1, -2))
            P = zero.copy()
            for term in terms:
                P += term
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
