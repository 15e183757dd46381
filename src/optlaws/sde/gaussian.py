"""Gaussian approximation of the optimizer diffusions around a minimum.

At a stationary point the mean freezes and the covariance obeys the
Lyapunov-type ODE

    dP/dt = -eta(t) (G P + P G') + w(t) Sigma,      P(0) = 0,

with G the generator (the Hessian for SGD, the 2N x 2N block matrix of
(x, m) for Adam) and w(t) the diffusion multiplier (eta0*eta(t)^2 for SGD,
(c1')^2 eta(t)^2 for Adam).  Its solution has the closed form

    P(t) = integral_0^t  e^{-G (Phi(t)-Phi(s))} Sigma e^{-G' (Phi(t)-Phi(s))} w(s) ds,

Phi being the running area integral of eta.  Both routes are computed: the
ODE by fixed-step RK4 with step halving until two refinements agree, the
closed form by per-segment Gauss-Legendre quadrature with a matrix
exponential at each node (eigendecomposition when G is symmetric by
:func:`~optlaws.numerics.is_symmetric`, otherwise a degree-18 Taylor
polynomial in G / |G|_1, scaled and squared node by node).

Both routes share one front end and one refinement rule.  The front end
checks the grid and broadcasts G and Sigma to one (systems, n, n) stack; a
route reshapes to the caller's batch shape only when it returns.  A level
is accepted once it agrees with the one before to TOL * (1 + max|P|) for
every system, and a level that is not finite is refused at once.  Each
route builds CHUNK_BYTES worth of its scratch at a time, which bounds its
memory.

The closed form doubles its nodes level by level, and each level is one
array pass over every grid time still refining.  A pass lays the nodes of
all its times on a (times, nodes) array, segment by segment, with zero
weight on the segments a time has not reached, a chunk of times at a time.
A time drops out once two levels agree for it, so its covariance does not
depend on the rest of the grid.

The ODE is linear in P, so one RK4 step is a polynomial in the operator
L(P) = G P + P G':

    P_next = sum_{j=0..4} a_j L^j(P) + sum_{j=0..3} b_j L^j(Sigma),

with a_j, b_j set by the step size and the rates at the step's start,
midpoint and end.  They come from running the RK4 stages on coefficient
vectors, for all steps of a chunk at once.  Left and right products
commute, so L^j(P) = sum_k C(j, k) G^k P G'^(j-k) and the step folds into

    P_next = sum_{k=0..4} G^k P M_k' + U,    M_k = sum_l a_{k+l} C(k+l, k) G^l,

two matrix products and an add per step, with M_k' and U built a chunk of
steps at a time.  No eigendecomposition or matrix exponential enters, so
the ODE route stays independent of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..numerics import gauss_legendre_nodes, is_symmetric, row_product
from ..schedule import Schedule
from .noise import NoiseModel
from .objectives import Objective
from .simulate import adam_c1_prime

__all__ = [
    "GaussianApprox",
    "gaussian_approx",
    "integrate_covariance_ode",
    "closed_form_covariance",
    "adam_generator",
]

# RK4: the base step is S/ODE_BASE_STEPS, halved up to ODE_MAX_HALVINGS times
# (finest step S/512,000) until two successive solutions agree to
# ODE_TOL * (1 + max|P|) for every system of the batch.  The first solve
# takes the first of these steps with h * eta_max * rho <= ODE_STABLE_H_RATE,
# rho = 2 max|eig(G)| bounding the eigenvalues of L: RK4's stability region
# holds the left half-disc of radius 2.5 (on the real axis it reaches 2.78).
# Every solve is then stable, so one that overflows has a covariance that
# does overflow, and a finer step cannot rescue it.
ODE_BASE_STEPS = 250
ODE_TOL = 1e-8
ODE_MAX_HALVINGS = 11
ODE_STABLE_H_RATE = 2.5
# Each route builds CHUNK_BYTES worth of its scratch at a time: the ODE the
# folded step matrices M_k' and U of a chunk of steps, the closed form the
# nodes of a chunk of grid times.
CHUNK_BYTES = 4 * 2**20
# _ODE_STEP_WORDS bounds the per-step words of the rates and of the RK4
# coefficient recursion on top of the matrices (about 80 by tracemalloc;
# twice that keeps the peak under the budget).
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
# Per quadrature node a pass holds about 2n words per system in the
# eigenbasis (with matrix exponentials, 4n^2 for the exponentials and their
# products with Sigma, plus the 19 Taylor coefficients) and a few words of
# nodes, weights and areas (by tracemalloc); twice the per-system words and
# _QUAD_NODE_WORDS keep the peak under CHUNK_BYTES.
_QUAD_NODE_WORDS = 16
# General G: exp(-tau G) = (e^{x B})^(2^s) with B = G / |G|_1, the least
# s >= 0 with tau |G|_1 < 2^s, so x = -tau |G|_1 / 2^s lies in (-1, 0], and
# e^{x B} summed to degree _TAYLOR_DEGREE, which leaves at most
# e^2/19! ~ 6e-17 relative out.
_TAYLOR_DEGREE = 18
_TAYLOR_DIVISORS = np.arange(1.0, _TAYLOR_DEGREE + 1)


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


def _systems(G, Sigma, schedule: Schedule, t_grid):
    """The front end of both routes: (times, shape, G, Sigma).

    ``times`` is the grid as a float array, each time checked to lie in
    [0, S] (a NaN does not); ``shape`` is the broadcast shape (..., n, n) of
    ``G`` and ``Sigma``, and both come back as one (systems, n, n) stack.
    """
    times = np.array([float(t) for t in t_grid])
    if not np.all((0.0 <= times) & (times <= schedule.S)):
        raise ValueError("t_grid must lie within [0, S]")
    G, Sigma = np.asarray(G, dtype=float), np.asarray(Sigma, dtype=float)
    shape = np.broadcast_shapes(G.shape, Sigma.shape)
    stack = (math.prod(shape[:-2]),) + shape[-2:]
    return (times, shape) + tuple(np.broadcast_to(M, shape).reshape(stack) for M in (G, Sigma))


def _agreed(prev, cur, tol, axes):
    """Whether the level ``cur`` agrees with ``prev`` for every system.

    Per system, over ``axes``, max|cur - prev| <= tol * (1 + max|cur|).  The
    system axis is the last one ``axes`` leaves, and the answer is an array
    over the axes before it.
    """
    err = np.max(np.abs(cur - prev), axis=axes, initial=0.0)
    size = np.max(np.abs(cur), axis=axes, initial=0.0)
    return np.all(err <= tol * (1.0 + size), axis=-1)


def _node_exponentials(G: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(-tau_q G) for every node tau_q >= 0 of ``tau``, shape (nodes,) + G.shape.

    One scaling-and-squaring pass for all nodes: the powers B^0..B^18 of
    B = G / |G|_1 are built once, the nodes' Taylor polynomials are one
    fixed-block (nodes x 19) @ (19 x n^2) product per system
    (:func:`~optlaws.numerics.row_product`), and a node is squared s_q
    times.  A node's exponential does not depend on the other nodes.
    """
    n = G.shape[-1]
    Gs = G.reshape(-1, n, n)
    n_sys = Gs.shape[0]
    norm = np.max(np.sum(np.abs(Gs), axis=-2), axis=-1)
    norm[norm == 0.0] = 1.0  # G = 0: exp = I at any scale
    B = Gs / norm[:, None, None]
    pows = [np.broadcast_to(np.eye(n), B.shape)]
    for _ in range(_TAYLOR_DEGREE):
        pows.append(pows[-1] @ B)
    pows = np.stack(pows, axis=1).reshape(n_sys, _TAYLOR_DEGREE + 1, n * n)
    a = norm[:, None] * tau  # (system, node)
    s = np.maximum(np.frexp(a)[1], 0)  # frexp's exponent is the least e with a < 2^e
    coef = np.ones((n_sys, tau.size, _TAYLOR_DEGREE + 1))
    np.divide(np.ldexp(-a, -s)[..., None], _TAYLOR_DIVISORS, out=coef[..., 1:])
    np.cumprod(coef, axis=-1, out=coef)  # x^k / k!
    K = row_product(coef, pows).swapaxes(0, 1).reshape(-1, n, n)
    s = s.T.ravel()
    for level in range(s.max(initial=0)):
        sq = np.flatnonzero(s > level)
        Ks = K[sq]
        K[sq] = Ks @ Ks
    return K.reshape(tau.shape + G.shape)


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
    docstring).  A solve that is not finite raises ``ValueError`` naming
    its step.
    """
    times, shape, G, Sigma = _systems(G, Sigma, schedule, t_grid)
    if np.any(np.diff(times) < 0.0):
        raise ValueError("t_grid must be sorted ascending")
    n_sys, n = G.shape[:2]
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
    chunk = max(1, CHUNK_BYTES // (8 * (6 * n_sys * n * n + _ODE_STEP_WORDS)))
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
        """P at every grid time, from steps of at most ``step``."""
        P = np.zeros((n_sys, n, n))
        out = np.empty((times.size, n_sys, n, n))
        t_cur = 0.0
        for i, t_next in enumerate(times.tolist()):
            for seg, lo, hi in schedule.pieces(t_cur, t_next):
                n_steps = max(1, math.ceil((hi - lo) / step))
                h = (hi - lo) / n_steps
                t = lo
                for start in range(0, n_steps, chunk):
                    t = advance(P, seg, t, h, min(chunk, n_steps - start))
            out[i] = P
            t_cur = t_next
        return out

    rate = schedule.eta_max * 2.0 * np.max(np.abs(np.linalg.eigvals(G)), initial=0.0)
    step, first = schedule.S / ODE_BASE_STEPS, 0
    while not step * rate <= ODE_STABLE_H_RATE:
        if first == ODE_MAX_HALVINGS:
            raise ValueError("covariance ODE not finite: at the finest step "
                             f"S/{ODE_BASE_STEPS << first}, "
                             f"h*eta*rho = {step * rate:.3g} > {ODE_STABLE_H_RATE}")
        step, first = 0.5 * step, first + 1
    prev = None
    for halvings in range(first, ODE_MAX_HALVINGS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            cur = solve(step)
        if not np.isfinite(cur).all():
            raise ValueError("covariance ODE is not finite at the step "
                             f"S/{ODE_BASE_STEPS << halvings}")
        if prev is not None and _agreed(prev, cur, ODE_TOL, (0, 2, 3)):
            break
        prev, step = cur, 0.5 * step
    return list(cur.reshape((times.size,) + shape))


def closed_form_covariance(
    G: np.ndarray,
    Sigma: np.ndarray,
    schedule: Schedule,
    scale: float,
    t_grid,
) -> list[np.ndarray]:
    """Exact-form covariance on t_grid via quadrature in the area variable.

    ``G`` and ``Sigma`` may carry leading batch dimensions (..., n, n).
    Each segment piece of [0, t] gets its own Gauss-Legendre nodes.  A
    refinement level prices every grid time still refining in one array
    pass, CHUNK_BYTES worth of times at a time, and a time keeps the
    level at which two passes first agree for the whole batch.  A batch
    whose every G is symmetric (``is_symmetric``) uses its
    eigendecomposition (scalar exponentials per eigenvalue pair); any
    other uses a matrix exponential per quadrature node, all of a chunk's
    nodes from one scaling-and-squaring pass of Taylor polynomials in G.  A
    time's result does not depend on the other times of the grid or on
    their order.  A pass that is not finite raises ``ValueError`` naming the
    first grid time where it is not.
    """
    times, shape, G, Sigma = _systems(G, Sigma, schedule, t_grid)
    n_sys, n = G.shape[:2]
    symmetric = is_symmetric(G)
    if symmetric:
        lam, U = np.linalg.eigh(G)
        UT = np.swapaxes(U, -1, -2)
        M = UT @ Sigma @ U
        node_words = _QUAD_NODE_WORDS + 4 * n_sys * n
    else:
        node_words = _QUAD_NODE_WORDS + 2 * n_sys * (4 * n * n + _TAYLOR_DEGREE + 1)
    segs = schedule.segments
    # the piece [t0, hi] of each segment at each time (hi = t0 where the
    # time has not reached it) and Phi at the piece's start, summed
    # segment by segment as Schedule.integral adds them
    hi = np.array([np.clip(times, seg.t0, seg.t1) for seg in segs])
    phi_lo = np.empty_like(hi)
    phi = np.zeros(times.size)
    for k, seg in enumerate(segs):
        phi_lo[k] = phi
        phi = phi + seg.integral(seg.t0, hi[k], "eta")

    def price(idx, n_nodes):
        """P at times[idx] from n_nodes nodes per segment piece."""
        x, w = gauss_legendre_nodes(n_nodes)
        w_s = np.empty((idx.size, len(segs), n_nodes))
        dphi = np.empty_like(w_s)
        for k, seg in enumerate(segs):
            lo, half = seg.t0, 0.5 * (hi[k, idx, None] - seg.t0)
            nodes = half * (x + 1.0) + lo  # all lo, of weight 0, before t reaches seg
            w_s[:, k] = scale * seg.value(nodes) ** 2 * (half * w)
            dphi[:, k] = phi[idx, None] - (phi_lo[k, idx, None] + seg.integral(lo, nodes, "eta"))
        w_s, dphi = w_s.reshape(idx.size, -1), dphi.reshape(idx.size, -1)
        if symmetric:
            # sum_q w_q * exp(-(lam_i + lam_j) dphi_q), assembled in the eigenbasis
            E = np.exp(-dphi[:, None, :, None] * lam[:, None, :])  # (time, system, q, n)
            I = np.swapaxes(E * w_s[:, None, :, None], -1, -2) @ E
            return U @ (M * I) @ UT
        # one exponential pass over the nonzero-weight nodes; summing the
        # zero-padded node axis adds the terms in node order, so each P is
        # the per-node sum bit for bit (np.add.reduceat's sum is not)
        q = np.flatnonzero(w_s)
        K = _node_exponentials(G, dphi.flat[q])  # (q, system, n, n)
        terms = np.zeros((w_s.size, n_sys, n, n))
        terms[q] = w_s.flat[q][:, None, None, None] * (K @ Sigma @ np.swapaxes(K, -1, -2))
        return terms.reshape(idx.size, -1, n_sys, n, n).sum(axis=1)

    out = np.zeros((times.size, n_sys, n, n))  # t = 0 keeps P = 0
    todo = np.flatnonzero(times)
    n_nodes = QUAD_BASE_NODES
    for level in range(QUAD_MAX_DOUBLINGS + 1):
        per_time = len(segs) * n_nodes * node_words + 8 * n_sys * n * n
        chunk = max(1, CHUNK_BYTES // (8 * per_time))
        refining = np.ones(todo.size, dtype=bool)
        for start in range(0, todo.size, chunk):
            idx = todo[start : start + chunk]
            with np.errstate(over="ignore", invalid="ignore"):
                cur = price(idx, n_nodes)
            if not np.isfinite(cur).all():
                t = float(times[idx[~np.isfinite(cur).all(axis=(1, 2, 3))][0]])
                raise ValueError(f"closed-form covariance is not finite at t = {t!r}")
            if level:  # out[idx] holds the previous level's pass
                refining[start : start + chunk] = ~_agreed(out[idx], cur, QUAD_TOL, (2, 3))
            out[idx] = cur
        todo = todo[refining]
        n_nodes *= 2
    return list(out.reshape((times.size,) + shape))


def adam_generator(H: np.ndarray, Sigma: np.ndarray, c1: float, eps: float):
    """Generator and diffusion matrix of the Adam dynamics at a minimum, in (x, m).

    The paper lifts to (x, m, v).  Noise is state-independent, so v is deterministic, frozen at
    diag(Sigma_g) and decoupled from (x, m) both ways (x reads it through m / sqrt(v + eps),
    whose v-derivative is 0 at m = 0): its rows and columns of P stay 0, so it is left out.
    """
    n = H.shape[0]
    d = np.diag(Sigma)
    Hhat = np.zeros((2 * n, 2 * n))
    Hhat[0:n, n:] = np.diag(1.0 / np.sqrt(d + eps))
    Hhat[n:, 0:n] = -c1 * H
    Hhat[n:, n:] = c1 * np.eye(n)
    Shat = np.zeros((2 * n, 2 * n))
    Shat[n:, n:] = Sigma
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
    if not is_symmetric(H):
        raise ValueError("Hessian at x_star is not symmetric")
    if algorithm == "sgd":
        G, S_mat = H, noise.Sigma_g
        scale = eta0
        mean = x_star
    elif algorithm == "adam":
        G, S_mat = adam_generator(H, noise.Sigma_g, c1, eps)
        c1_prime = adam_c1_prime(c1, eta0)
        scale = c1_prime * c1_prime
        mean = np.concatenate([x_star, np.zeros_like(x_star)])
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    t_grid = list(t_grid)  # read once: a one-shot iterable feeds both routes
    P_ode = integrate_covariance_ode(G, S_mat, schedule, scale, t_grid)
    P_closed = closed_form_covariance(G, S_mat, schedule, scale, t_grid)
    return GaussianApprox(
        algorithm=algorithm,
        t_grid=np.asarray(t_grid, dtype=float),
        P_ode=P_ode,
        P_closed=P_closed,
        mean=mean,
        generator=G,
    )
