"""Training-divergence criterion: time above the critical rate vs warmup length.

Operates on normalized quantities (peak LR in lr_scale units, token counts
in billions).  Inputs S and a1 are squared before entering the formula;
that preprocessing is scoped to this module only and is part of how the
shipped constants were fitted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "DivergenceParams",
    "CriterionResult",
    "criterion_R",
    "critical_rate",
    "DEFAULT_PARAMS",
]


@dataclass(frozen=True)
class DivergenceParams:
    """Fitted constants of the divergence criterion (all overridable)."""

    c1_hat: float = 1.76
    c2_hat: float = 33.21
    c3_hat: float = 292.03
    alpha1_hat: float = 0.218
    alpha2_hat: float = 0.5

    def __post_init__(self):
        for name in ("c1_hat", "c2_hat", "c3_hat", "alpha1_hat", "alpha2_hat"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ValueError(
                    f"divergence parameter {name} must be finite and strictly positive, "
                    f"got {value!r}"
                )


DEFAULT_PARAMS = DivergenceParams()


@dataclass(frozen=True)
class CriterionResult:
    R: float
    eta_L: float
    verdict: str  # "stable" | "diverge"

    def as_dict(self) -> dict:
        return {"R": self.R, "eta_L": self.eta_L, "verdict": self.verdict}


def critical_rate(N: float, S: float, params: DivergenceParams = DEFAULT_PARAMS) -> float:
    """The critical rate c1 * (S^2)^alpha1 / (c2 * N^alpha2), S pre-squaring."""
    if not (0 < N < math.inf and 0 < S < math.inf):
        raise ValueError(f"N and S must be finite and strictly positive, got N={N}, S={S}")
    return params.c1_hat * (S * S) ** params.alpha1_hat / (
        params.c2_hat * N ** params.alpha2_hat
    )


def criterion_R(
    eta_max: float,
    a1: float,
    N: float,
    S: float,
    params: DivergenceParams = DEFAULT_PARAMS,
) -> CriterionResult:
    """Divergence ratio R and critical rate eta_L for one configuration.

    ``eta_max`` is the normalized peak LR; ``a1`` and ``S`` are the warmup
    and horizon in billions of tokens *before* the internal squaring; ``N``
    is billions of parameters.  With s = S^2 and a = a1^2:

        eta_L = min(eta_max, c1 * s^alpha1 / (c2 * N^alpha2))
        R     = s * (eta_max - eta_L)^2 / (c3 * a * eta_L^2)

    R > 1 predicts divergence; R <= 1 (including R = 1 exactly) is stable.
    """
    inf = math.inf  # each chained test is also false for NaN
    if not (0 < eta_max < inf and 0 < a1 < inf and 0 < N < inf and 0 < S < inf):
        raise ValueError(
            f"criterion inputs must be finite and strictly positive, got eta_max={eta_max}, "
            f"a1={a1}, N={N}, S={S}"
        )
    s_sq = S * S
    a_sq = a1 * a1
    eta_l = min(eta_max, critical_rate(N, S, params))
    if eta_l <= 0:
        raise ValueError(f"degenerate parameters yield eta_L = {eta_l}")
    excess = eta_max - eta_l
    r = s_sq * excess * excess / (params.c3_hat * a_sq * eta_l * eta_l)
    return CriterionResult(R=r, eta_L=eta_l, verdict="diverge" if r > 1.0 else "stable")
