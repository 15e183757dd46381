"""Gradient-noise model: a fixed Gaussian covariance and its draws."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..numerics import is_symmetric

__all__ = ["NoiseModel"]


def _psd_root(sigma: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(sigma)
    if w[0] < -1e-10 * max(1.0, abs(w[-1])):
        raise ValueError(f"covariance is not positive semidefinite (min eig {w[0]})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


@dataclass(frozen=True)
class NoiseModel:
    """Gradient noise z ~ N(0, Sigma_g) with D perturbed-gradient samples.

    ``Sigma_g`` is the per-sample covariance (batch size fixed at 1).  The
    empirical covariance built from D draws is the random matrix whose
    trace and top eigenvalue the concentration checks exercise.
    """

    Sigma_g: np.ndarray
    D: int = 64

    def __post_init__(self):
        sigma = np.asarray(self.Sigma_g, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("Sigma_g must be square")
        if sigma.size == 0:
            raise ValueError("Sigma_g must be nonempty")
        if not np.isfinite(sigma).all():
            raise ValueError("Sigma_g must be finite")
        if not is_symmetric(sigma):
            raise ValueError("Sigma_g must be symmetric")
        if self.D < 1:
            raise ValueError("D must be at least 1")
        object.__setattr__(self, "Sigma_g", sigma)
        object.__setattr__(self, "_root", _psd_root(sigma))

    @classmethod
    def isotropic(cls, dim: int, variance: float = 1.0, D: int = 64) -> "NoiseModel":
        if not math.isfinite(variance):
            raise ValueError(f"noise variance must be finite, got {variance}")
        return cls(variance * np.eye(dim), D=D)

    @property
    def dim(self) -> int:
        return self.Sigma_g.shape[0]

    @property
    def root(self) -> np.ndarray:
        """Symmetric PSD square root of Sigma_g."""
        return self._root

    @property
    def sigma_g(self) -> float:
        """Largest eigenvalue of Sigma_g^(1/2)."""
        return float(np.sqrt(max(np.linalg.eigvalsh(self.Sigma_g)[-1], 0.0)))

    @property
    def trace(self) -> float:
        return float(np.trace(self.Sigma_g))

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Noise vectors of the given leading shape, last axis = dim."""
        xi = rng.standard_normal((*shape, self.dim))
        return xi @ self._root
