"""Optimization-feature vectors: schedule functionals mapped to 16 basis terms.

The 16 entries split into four blocks of four:

    convergence  (1/Iw, 1/It, (N/It)^.25, (Iw*It)^-.23)
    escape       (Et, Ew^.25, Et^.25, (S*N)^-.25)
    mixed        ((Et/Iw)^.2, (Et/It)^.15, (N*Et/Iw)^.15, (N*Et/It)^.15)
    bias         (N^-.25, S^-.25, eta_max^.2, 1)

where Iw and It are the warmup and tail integrals of eta over the two
convergence intervals [0, a_c1] and [a_c2, S], and Ew, Et are the warmup
and tail integrals of (eta')^2 over [0, a_e1] and [a_e2, S].  Powers
default to the values above but can be overridden per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schedule import Schedule

__all__ = [
    "FeatureError",
    "Normalizer",
    "MarkerPolicy",
    "FeatureVector",
    "TERM_NAMES",
    "DEFAULT_POWERS",
    "MARKER_RULES",
    "default_markers",
    "collapsed_markers",
    "schedule_bases",
    "features_from_bases",
    "compute_features",
]

TERM_NAMES = (
    # convergence block
    "warmup_lr_area",
    "tail_lr_area",
    "model_per_tail_lr_area",
    "warmup_x_tail_lr_area",
    # escape block
    "tail_slope_energy",
    "warmup_slope_energy",
    "tail_slope_energy_fourth_root",
    "tokens_x_model",
    # mixed block
    "tail_slope_energy_per_warmup_lr_area",
    "tail_slope_energy_per_tail_lr_area",
    "model_x_tail_slope_energy_per_warmup_lr_area",
    "model_x_tail_slope_energy_per_tail_lr_area",
    # bias block
    "model_size",
    "token_count",
    "peak_lr",
    "one",
)

DEFAULT_POWERS = (
    -1.0, -1.0, 0.25, -0.23,
    1.0, 0.25, 0.25, -0.25,
    0.2, 0.15, 0.15, 0.15,
    -0.25, -0.25, 0.2, 1.0,
)

# Indices of the escape block, droppable in 12-term mode.
ESCAPE_INDICES = (4, 5, 6, 7)


class FeatureError(ValueError):
    """A configuration is outside the feature map's domain."""


@dataclass(frozen=True)
class Normalizer:
    """Unit conversions applied once at ingestion.

    Raw learning rates are divided by ``lr_scale`` so normalized rates land
    in (0, 1]; step counts become billions of tokens via
    steps * token_length * batch / 1e9; model sizes are billions of
    learnable parameters.
    """

    lr_scale: float = 1.5e-2

    def normalize_lr(self, raw_lr: float) -> float:
        return raw_lr / self.lr_scale

    @staticmethod
    def tokens_billions(steps: float, token_length: int, batch: int) -> float:
        return steps * token_length * batch / 1e9


@dataclass(frozen=True)
class MarkerPolicy:
    """Split points for the convergence and escape integrals (token units)."""

    a_c1: float
    a_c2: float
    a_e1: float
    a_e2: float

    def __post_init__(self):
        if not (0.0 <= self.a_c1 <= self.a_c2):
            raise FeatureError(f"need 0 <= a_c1 <= a_c2, got {self.a_c1}, {self.a_c2}")
        if not (0.0 <= self.a_e1 <= self.a_e2):
            raise FeatureError(f"need 0 <= a_e1 <= a_e2, got {self.a_e1}, {self.a_e2}")


def default_markers(schedule: Schedule) -> MarkerPolicy:
    """Standard split rule: a_c1 = a1, a_c2 = a3, a_e1 = a_e2 = a2.

    The warmup end bounds the first convergence integral, the cooldown
    start bounds the tail one, and both escape integrals split at the
    decay/plateau boundary.
    """
    a1, a2, a3 = schedule.markers
    return MarkerPolicy(a1, a3, a2, a2)


def collapsed_markers(schedule: Schedule) -> MarkerPolicy:
    """All four split points at the warmup end a1.

    This folds any constant phase into the cooldown integrals, which is the
    convention under which the two reference schedule families have their
    printed closed forms.
    """
    a1 = schedule.markers[0]
    return MarkerPolicy(a1, a1, a1, a1)


MARKER_RULES = {
    "a1/a3/a2": default_markers,
    "all-a1": collapsed_markers,
}


@dataclass(frozen=True)
class FeatureVector:
    """The 16 basis-function values for one configuration."""

    values: tuple[float, ...]
    powers: tuple[float, ...] = DEFAULT_POWERS
    names: tuple[str, ...] = TERM_NAMES

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))
        if len(self.values) != 16 or len(self.powers) != 16:
            raise FeatureError("feature vector has exactly 16 entries")
        for name, v in zip(self.names, self.values):
            if not math.isfinite(v) or v < 0.0:
                raise FeatureError(f"feature entry {name!r} is not finite nonnegative: {v}")
        if self.values[15] != 1.0:
            raise FeatureError("bias term must be exactly 1.0")

    @property
    def convergence(self) -> tuple[float, ...]:
        return self.values[0:4]

    @property
    def escape(self) -> tuple[float, ...]:
        return self.values[4:8]

    @property
    def mixed(self) -> tuple[float, ...]:
        return self.values[8:12]

    @property
    def bias(self) -> tuple[float, ...]:
        return self.values[12:16]

    def as_records(self) -> list[dict]:
        """JSON-ready list of {name, power, value}, table order."""
        return [
            {"name": n, "power": p, "value": v}
            for n, p, v in zip(self.names, self.powers, self.values)
        ]


def _pow(base: float, power: float, term: str) -> float:
    if base < 0.0:
        raise FeatureError(f"negative base for term {term!r}: {base}")
    if base == 0.0 and power < 0.0:
        raise FeatureError(f"zero base with negative power for term {term!r}")
    return base ** power


def _ratio(num: float, den: float, term: str) -> float:
    if den <= 0.0:
        raise FeatureError(f"zero or negative denominator for term {term!r}: {den}")
    return num / den


def schedule_bases(schedule: Schedule, policy: MarkerPolicy) -> dict:
    """The raw integrals and peak rate feeding the feature map.

    Keys: warmup_area, tail_area (integral of eta), warmup_energy,
    tail_energy (integral of (eta')^2), eta_max.
    """
    S = schedule.S
    if policy.a_c2 > S or policy.a_e2 > S:
        raise FeatureError(f"marker policy {policy} exceeds horizon S = {S}")
    return {
        "warmup_area": schedule.integral(0.0, policy.a_c1, "eta"),
        "tail_area": schedule.integral(policy.a_c2, S, "eta"),
        "warmup_energy": schedule.integral(0.0, policy.a_e1, "deta_sq"),
        "tail_energy": schedule.integral(policy.a_e2, S, "deta_sq"),
        "eta_max": schedule.eta_max,
    }


def features_from_bases(
    bases: dict, S: float, N: float, powers=None
) -> FeatureVector:
    """Assemble the 16-entry vector from precomputed base quantities.

    Split out from :func:`compute_features` so that the continual-training
    variant can rescale the tail slope energy and extend the warmup area
    before assembly.
    """
    p = DEFAULT_POWERS if powers is None else tuple(float(x) for x in powers)
    if len(p) != 16:
        raise FeatureError(f"need 16 powers, got {len(p)}")
    if S <= 0 or N <= 0:
        raise FeatureError(f"S and N must be positive, got S={S}, N={N}")
    iw = bases["warmup_area"]
    it = bases["tail_area"]
    ew = bases["warmup_energy"]
    et = bases["tail_energy"]
    h = bases["eta_max"]
    names = TERM_NAMES
    vals = (
        _pow(iw, p[0], names[0]),
        _pow(it, p[1], names[1]),
        _pow(_ratio(N, it, names[2]), p[2], names[2]),
        _pow(iw * it, p[3], names[3]),
        _pow(et, p[4], names[4]),
        _pow(ew, p[5], names[5]),
        _pow(et, p[6], names[6]),
        _pow(S * N, p[7], names[7]),
        _pow(_ratio(et, iw, names[8]), p[8], names[8]),
        _pow(_ratio(et, it, names[9]), p[9], names[9]),
        _pow(_ratio(N * et, iw, names[10]), p[10], names[10]),
        _pow(_ratio(N * et, it, names[11]), p[11], names[11]),
        _pow(N, p[12], names[12]),
        _pow(S, p[13], names[13]),
        _pow(h, p[14], names[14]),
        1.0,
    )
    return FeatureVector(vals, p)


def compute_features(
    schedule: Schedule,
    policy: MarkerPolicy,
    N: float,
    powers=None,
    S: float | None = None,
) -> FeatureVector:
    """Feature vector of a schedule at model size N (billions).

    ``S`` defaults to the schedule horizon.  Raises :class:`FeatureError`
    when an integral that appears in a denominator (or under a negative
    power) vanishes, e.g. for a zero-length or zero-rate warmup.
    """
    if S is None:
        S = schedule.S
    elif S != schedule.S:
        raise FeatureError(f"S = {S} disagrees with schedule horizon {schedule.S}")
    return features_from_bases(schedule_bases(schedule, policy), S, N, powers)
