"""Closed-form convergence and escape bounds for the optimizer diffusions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..schedule import Schedule
from .noise import NoiseModel
from .objectives import Objective
from .simulate import SdeConfig, start_points

__all__ = [
    "sigma0",
    "convergence_bound",
    "EscapeBounds",
    "escape_bounds",
    "anti_concentration_bound",
]


def sigma0(noise: NoiseModel, N: int) -> float:
    """Noise amplitude sigma_g * sqrt((1 + sqrt(D/N)) + 1/N^(2/3)).

    Upper bound (in expectation) on the top eigenvalue of the D-sample
    covariance estimate, with the unspecified universal constant set to 1.
    """
    return noise.sigma_g * math.sqrt(
        (1.0 + math.sqrt(noise.D / N)) + 1.0 / N ** (2.0 / 3.0)
    )


def convergence_bound(
    objective: Objective,
    noise: NoiseModel,
    config: SdeConfig,
    M: Optional[float] = None,
) -> dict:
    """Right-hand side of the convergence bounds for the run ``config`` describes.

    Every constant comes from that run: I1 and I2 are the exact area and
    squared-area integrals of eta over [0, S] (the report's ``eta_weight`` is
    the discrete area of the steps taken, over [0, n_steps*eta0]); f0 is f
    at the start :func:`simulate` uses (``config.x0``, else the objective's
    x*); eta0, c1, c2, eps and c1' = ``config.c1_prime`` come from
    ``config``; V (the largest diagonal entry of Sigma_g, 0 for zero noise)
    and sigma_bar = sigma_g^2 from ``noise``; f_min, L and ell from the
    objective.

    SGD returns {"gradient": ...} bounding the eta-weighted average squared
    gradient norm:

        (f0 - f_min)/I1 + eta0 * L * sigma0^2 * N * I2 / (2 I1).

    Adam returns {"momentum": ...}, which needs 1 - c2/(4 c1) > 0, and when
    ``M`` is given also {"gradient": ...}, which needs the objective's
    gradient-norm bound ``ell``.  Adam's m and v start at 0.
    """
    schedule, eta0 = config.schedule, config.eta0
    I1 = schedule.integral(0.0, schedule.S, "eta")
    I2 = schedule.integral(0.0, schedule.S, "eta_sq")
    if I1 <= 0:
        raise ValueError("bound needs a positive area integral on [0, S]")
    f_min = objective.f_min
    if f_min is None:
        raise ValueError(f"objective {objective.name!r} has no f_min")
    f0 = float(objective.value(start_points(objective, config)[1]))
    N, L = objective.dim, objective.L

    if config.algorithm == "sgd":
        s0 = sigma0(noise, N)
        return {"gradient": (f0 - f_min) / I1 + eta0 * L * s0 * s0 * N * I2 / (2.0 * I1)}

    c1, c2, eps = config.c1, config.c2, config.eps
    kappa = 1.0 - c2 / (4.0 * c1)
    if kappa <= 0:
        raise ValueError(f"need 1 - c2/(4 c1) > 0, got c1={c1}, c2={c2}")
    V = float(np.max(np.diag(noise.Sigma_g))) if np.any(noise.Sigma_g) else 0.0
    sigma_bar = noise.sigma_g ** 2
    sqv = math.sqrt(V + eps)
    momentum = sqv * (f0 - f_min) / (kappa * I1) + (
        (config.c1_prime ** 2) / (2.0 * c1)
    ) * sigma_bar * sqv * I2 / (kappa * math.sqrt(eps) * I1)

    out = {"momentum": momentum}
    if M is not None:
        ell = objective.ell
        if ell is None:
            raise ValueError(f"the gradient bound needs ell; {objective.name!r} has none")
        head = 2.0 * sqv * (
            f0 - f_min + ell * M * math.sqrt(N) / (c1 * math.sqrt(eps))
        ) / I1
        factor = 2.0 * L * sqv / (c1 * eps) + (
            1.0 + sigma_bar ** 2 / eps ** 2
        ) * c2 ** 2 * (V + eps) / (2.0 * c1 ** 2 * eps)
        out["gradient"] = head + factor * momentum
    return out


@dataclass(frozen=True)
class EscapeBounds:
    """Escape/trapping probabilities for a Gaussian iterate with covariance P."""

    escape_lower: float
    trapped_upper: float
    vacuous: bool
    asymptotic_order: Optional[float] = None


def anti_concentration_bound(eps: float, trace: float) -> float:
    """sqrt(e * eps / trace): upper bound on P[||x - mu||^2 <= eps]."""
    if trace <= 0:
        raise ValueError("trace must be positive")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return math.sqrt(math.e * eps / trace)


def escape_bounds(
    P: np.ndarray,
    eps: float,
    schedule: Optional[Schedule] = None,
    noise: Optional[NoiseModel] = None,
) -> EscapeBounds:
    """Escape lower bound and trapping upper bound from the covariance trace.

    trapped_upper = sqrt(e*eps/Tr P) clipped to [0, 1] (flagged vacuous past
    eps = Tr P / e); escape_lower is its complement.  When a schedule with
    eta(0) = eta_max, eta(T) = 0 and a noise model are supplied, the
    asymptotic order sqrt(eps * integral(eta'^2) / (eta_max^4 Tr Sigma_g))
    is reported as well (constant suppressed).
    """
    tr = float(np.trace(np.asarray(P)))
    if tr <= 0:
        raise ValueError(f"Tr(P) must be positive, got {tr}")
    raw = anti_concentration_bound(eps, tr)
    vacuous = raw > 1.0
    trapped = min(raw, 1.0)
    order = None
    if schedule is not None and noise is not None:
        h = schedule.eta_max
        tr_sg = noise.trace
        if h > 0 and tr_sg > 0:
            energy = schedule.integral(0.0, schedule.S, "deta_sq")
            order = math.sqrt(eps * energy / (h ** 4 * tr_sg))
    return EscapeBounds(
        escape_lower=1.0 - trapped,
        trapped_upper=trapped,
        vacuous=vacuous,
        asymptotic_order=order,
    )
