"""Concentration checks for the empirical gradient-noise covariance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel

__all__ = ["RandomMatrixReport", "bernstein_rhs", "random_matrix_checks"]

_CHUNK = 256  # fixed so results are independent of available memory


def bernstein_rhs(t: float, Sigma_g: np.ndarray, D: int) -> float:
    """2 exp(-D t^2 / (4 Tr(Sigma_g^2) + 2 t sigma_g^2))."""
    tr2 = float(np.trace(Sigma_g @ Sigma_g))
    sg2 = float(np.linalg.eigvalsh(Sigma_g)[-1])
    denom = 4.0 * tr2 + 2.0 * t * sg2
    if denom <= 0:
        return 0.0 if t > 0 else 2.0
    return 2.0 * math.exp(-D * t * t / denom)


@dataclass(frozen=True)
class RandomMatrixReport:
    t_grid: tuple[float, ...]
    deviation_freq: tuple[float, ...]
    bernstein: tuple[float, ...]
    mean_lambda_max: float
    bound_one_plus_sqrt_DN: float
    bound_mp_edge: float
    residual: float
    n_trials: int

    def as_dict(self) -> dict:
        return {
            "t_grid": list(self.t_grid),
            "deviation_freq": list(self.deviation_freq),
            "bernstein": list(self.bernstein),
            "mean_lambda_max": self.mean_lambda_max,
            "bound_one_plus_sqrt_DN": self.bound_one_plus_sqrt_DN,
            "bound_mp_edge": self.bound_mp_edge,
            "residual": self.residual,
            "n_trials": self.n_trials,
        }


def random_matrix_checks(
    Sigma_g: np.ndarray,
    D: int,
    N: int,
    n_trials: int,
    t_grid=None,
    seed: int = 0,
) -> RandomMatrixReport:
    """Monte-Carlo trace and top-eigenvalue behaviour of the D-sample estimate.

    Per trial, D i.i.d. N(0, Sigma_g) vectors form the empirical covariance
    Z Z^T / D.  Reports the frequency of |Tr - Tr(Sigma_g)| >= t against the
    Bernstein right-hand side on ``t_grid``, and the empirical mean top
    eigenvalue alongside the two candidate scalings (1 + sqrt(D/N)) sigma_g^2
    and the Marchenko-Pastur edge (1 + sqrt(N/D))^2 sigma_g^2.  Which of the
    two dominates is left to the reader; the residual against the first is
    reported rather than asserted.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    Sigma_g = np.asarray(Sigma_g, dtype=float)
    if Sigma_g.shape != (N, N):
        raise ValueError(f"Sigma_g must be ({N}, {N})")
    model = NoiseModel(Sigma_g, D=D)
    tr_true = model.trace
    sg2 = model.sigma_g ** 2

    if t_grid is None:
        spread = math.sqrt(max(2.0 * float(np.trace(Sigma_g @ Sigma_g)) / D, 1e-30))
        t_grid = [spread * k for k in range(1, 11)]
    t_grid = [float(t) for t in t_grid]

    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    traces = np.empty(n_trials)
    lmax = np.empty(n_trials)
    for start in range(0, n_trials, _CHUNK):
        stop = min(start + _CHUNK, n_trials)
        z = model.draw(rng, (stop - start, D))  # rows ~ N(0, Sigma_g)
        traces[start:stop] = np.einsum("bdn,bdn->b", z, z) / D
        cov = np.swapaxes(z, 1, 2) @ z / D
        lmax[start:stop] = np.linalg.eigvalsh(cov)[:, -1]

    dev = np.abs(traces - tr_true)
    freq = tuple(float(np.mean(dev >= t)) for t in t_grid)
    bern = tuple(bernstein_rhs(t, Sigma_g, D) for t in t_grid)
    mean_lmax = float(np.mean(lmax))
    cand1 = (1.0 + math.sqrt(D / N)) * sg2
    cand2 = (1.0 + math.sqrt(N / D)) ** 2 * sg2
    return RandomMatrixReport(
        t_grid=tuple(t_grid),
        deviation_freq=freq,
        bernstein=bern,
        mean_lambda_max=mean_lmax,
        bound_one_plus_sqrt_DN=cand1,
        bound_mp_edge=cand2,
        residual=mean_lmax - cand1,
        n_trials=n_trials,
    )
