"""Training-divergence criterion: time above the critical rate vs warmup length.

Operates on normalized quantities (peak LR in lr_scale units, token counts
in billions).  Inputs S and a1 are squared before entering the formula;
that preprocessing is scoped to this module only and is part of how the
shipped constants were fitted.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivergenceParams",
    "CriterionResult",
    "criterion_R",
    "critical_rate",
    "divergence_ratio",
    "gated_criterion",
    "gated_criteria",
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
    s_sq = S * S
    if s_sq == math.inf:
        raise ValueError(f"horizon S={S} is too large: S^2 overflows")
    if s_sq < sys.float_info.min:  # zero, or subnormal and short of digits
        raise ValueError(f"horizon S={S} is too small: S^2 underflows")
    try:
        rate = params.c1_hat * s_sq ** params.alpha1_hat / (params.c2_hat * N ** params.alpha2_hat)
    except OverflowError:
        raise ValueError(f"critical rate: (S^2)^alpha1 or N^alpha2 overflows at S={S}, N={N}") from None
    except ZeroDivisionError:
        raise ValueError(f"critical rate: c2 * N^alpha2 underflows to 0 at N={N}") from None
    if rate == 0.0:
        raise ValueError(f"critical rate underflows to 0 at S={S}, N={N}")
    return rate


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
    a_sq = a1 * a1
    if a_sq == 0.0:
        raise ValueError(f"warmup a1={a1} is too small: a1^2 underflows to 0")
    eta_l = min(eta_max, critical_rate(N, S, params))
    r = divergence_ratio(eta_max, a_sq, S * S, eta_l, params)
    return CriterionResult(R=r, eta_L=eta_l, verdict="diverge" if r > 1.0 else "stable")


def divergence_ratio(eta_max, a_sq, s_sq, eta_l, params: DivergenceParams = DEFAULT_PARAMS):
    """R = s * (eta_max - eta_L)^2 / (c3 * a * eta_L^2) from the squared
    horizon s and warmup a; elementwise on numpy arrays too.

    Raises ValueError, naming the first such cell, when the denominator
    underflows to 0.
    """
    denom = params.c3_hat * a_sq * eta_l * eta_l
    if np.count_nonzero(denom == 0.0):  # one test for scalars and arrays alike
        i = np.flatnonzero(denom == 0.0)[0]
        eta_l, a_sq = (np.broadcast_to(x, np.shape(denom)).flat[i] for x in (eta_l, a_sq))
        raise ValueError(f"divergence ratio: c3 * a1^2 * eta_L^2 underflows to 0 at "
                         f"eta_L={eta_l:g}, a1^2={a_sq:g}")
    excess = eta_max - eta_l
    return s_sq * excess * excess / denom


def gated_criterion(
    eta_max: float,
    a1: float,
    N: float,
    S: float,
    params: DivergenceParams = DEFAULT_PARAMS,
) -> CriterionResult:
    """The divergence gate: :func:`criterion_R`, extended to a zero warmup.

    The criterion itself requires a1 > 0 (and rejects any other nonzero
    a1); with no warmup the ratio blows up, so such configs diverge
    (R = inf) unless the peak rate already sits at or below the critical
    rate (zero numerator, R = 0 in the limit).  A zero warmup needs a
    non-negative peak rate: a NaN or negative one raises ValueError.
    """
    if a1 != 0.0:
        return criterion_R(eta_max, a1, N, S, params)
    if not eta_max >= 0:
        raise ValueError(f"with a zero warmup the peak rate must be non-negative, "
                         f"got eta_max={eta_max}")
    threshold = critical_rate(N, S, params)
    if eta_max <= threshold:
        return CriterionResult(R=0.0, eta_L=eta_max, verdict="stable")
    return CriterionResult(R=math.inf, eta_L=threshold, verdict="diverge")


def gated_criteria(eta_max, a1, N, S, params: DivergenceParams = DEFAULT_PARAMS):
    """:func:`gated_criterion` over arrays of configurations: the arrays R and
    eta_L, each element equal to the scalar result (R > 1: "diverge").

    The critical rate is one scalar :func:`critical_rate` per element of
    ``np.broadcast(N, S)`` (one for a grid at one N and S), since numpy's
    power can round differently from libm's; the rest runs elementwise.  If
    any config is outside the gate's domain, the scalar gate replays the
    configs in order (row-major) and raises the first one's error.
    """
    NS = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (N, S)))
    eta_max, a1, N, S = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (eta_max, a1)), *NS)
    warm = a1 != 0.0
    with np.errstate(over="ignore"):  # an overflowing warmup fails the critical rate
        a_sq = a1 * a1
    try:
        # criterion_R's input checks, or the zero-warmup peak check;
        # divergence_ratio checks its denominator
        if not np.where(warm, (0 < eta_max) & (eta_max < math.inf) & (0 < a1) & (a1 < math.inf)
                        & (a_sq != 0.0), eta_max >= 0).all():
            raise ValueError
        threshold = np.reshape([critical_rate(n, s, params) for n, s in zip(
            *(x.ravel().tolist() for x in NS))], NS[0].shape)
        eta_l = np.where(threshold < eta_max, threshold, eta_max)
        # a zero warmup: R = 0 at or below the critical rate, inf above it
        R = np.where(eta_max <= threshold, 0.0, math.inf)
        with np.errstate(over="ignore"):  # R = inf, as the scalar ratio gives it
            R[warm] = divergence_ratio(eta_max[warm], a_sq[warm], (S * S)[warm], eta_l[warm],
                                       params)
    except ValueError:
        for args in zip(*(x.ravel().tolist() for x in (eta_max, a1, N, S))):
            gated_criterion(*args, params)
        raise
    return R, eta_l
