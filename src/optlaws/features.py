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
import numbers
from dataclasses import dataclass

import numpy as np

from .schedule import Schedule

__all__ = [
    "FeatureError",
    "Normalizer",
    "MarkerPolicy",
    "FeatureVector",
    "LR_SCALE",
    "TERM_NAMES",
    "DEFAULT_POWERS",
    "MARKER_RULES",
    "DEFAULT_MARKER_RULE",
    "marker_policy",
    "default_markers",
    "collapsed_markers",
    "schedule_bases",
    "rule_bases",
    "feature_matrix",
    "checked_feature_matrix",
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

# Default raw learning rate that normalizes to 1.
LR_SCALE = 1.5e-2

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

    lr_scale: float = LR_SCALE

    def __post_init__(self):
        if not (isinstance(self.lr_scale, numbers.Real) and 0 < self.lr_scale < math.inf):
            raise ValueError(
                f"lr_scale must be finite and strictly positive, got {self.lr_scale!r}"
            )

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


def _standard_splits(a1, a2, a3):
    return a1, a3, a2, a2


def _collapsed_splits(a1, a2, a3):
    return a1, a1, a1, a1


# The rule laws are fitted and priced under unless another is named.
DEFAULT_MARKER_RULE = "a1/a3/a2"

# Marker rule name -> split points (a_c1, a_c2, a_e1, a_e2) from the phase
# markers (a1, a2, a3).  The rules only pick markers, so they apply
# elementwise to arrays of markers as well.
MARKER_RULES = {
    DEFAULT_MARKER_RULE: _standard_splits,
    "all-a1": _collapsed_splits,
}


def marker_policy(rule: str, schedule: Schedule) -> MarkerPolicy:
    """The split points of ``schedule`` under the named marker rule."""
    return MarkerPolicy(*MARKER_RULES[rule](*schedule.markers))


def default_markers(schedule: Schedule) -> MarkerPolicy:
    """Standard split rule: a_c1 = a1, a_c2 = a3, a_e1 = a_e2 = a2.

    The warmup end bounds the first convergence integral, the cooldown
    start bounds the tail one, and both escape integrals split at the
    decay/plateau boundary.
    """
    return marker_policy(DEFAULT_MARKER_RULE, schedule)


def collapsed_markers(schedule: Schedule) -> MarkerPolicy:
    """All four split points at the warmup end a1.

    This folds any constant phase into the cooldown integrals, which is the
    convention under which the two reference schedule families have their
    printed closed forms.
    """
    return marker_policy("all-a1", schedule)


@dataclass(frozen=True)
class FeatureVector:
    """The 16 basis-function values for one configuration."""

    values: tuple[float, ...]
    powers: tuple[float, ...] = DEFAULT_POWERS

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))
        if len(self.values) != 16 or len(self.powers) != 16:
            raise FeatureError("feature vector has exactly 16 entries")
        for name, v in zip(TERM_NAMES, self.values):
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
            for n, p, v in zip(TERM_NAMES, self.powers, self.values)
        ]


def schedule_bases(schedule: Schedule, policy: MarkerPolicy) -> dict:
    """The raw integrals and peak rate feeding the feature map.

    Keys: warmup_area, tail_area (integral of eta), warmup_energy,
    tail_energy (integral of (eta')^2), eta_max.
    """
    S = schedule.S
    if policy.a_c2 > S or policy.a_e2 > S:
        raise FeatureError(f"marker policy {policy} exceeds horizon S = {S}")
    return _bases(schedule, policy.a_c1, policy.a_c2, policy.a_e1, policy.a_e2)


def rule_bases(schedules, rule: str) -> dict:
    """:func:`schedule_bases` of a :class:`Schedule` or, elementwise, of a
    :class:`~optlaws.schedule.ScheduleTable`, split by the named marker rule."""
    return _bases(schedules, *MARKER_RULES[rule](*schedules.markers))


def _bases(schedule, a_c1, a_c2, a_e1, a_e2) -> dict:
    S = schedule.S
    return {
        "warmup_area": schedule.integral(0.0, a_c1, "eta"),
        "tail_area": schedule.integral(a_c2, S, "eta"),
        "warmup_energy": schedule.integral(0.0, a_e1, "deta_sq"),
        "tail_energy": schedule.integral(a_e2, S, "deta_sq"),
        "eta_max": schedule.eta_max,
    }


def _powers(powers) -> tuple[float, ...]:
    p = DEFAULT_POWERS if powers is None else tuple(float(x) for x in powers)
    if len(p) != 16:
        raise FeatureError(f"need 16 powers, got {len(p)}")
    return p


def _columns(bases: dict, S, N) -> list[np.ndarray]:
    keys = ("warmup_area", "tail_area", "warmup_energy", "tail_energy", "eta_max")
    return [np.asarray(x, dtype=float) for x in (*(bases[k] for k in keys), S, N)]


# Ratio terms and the base column (0: warmup area, 1: tail area) they divide by.
_DENOMINATORS = {2: 1, 8: 0, 9: 1, 10: 0, 11: 1}


def _fill_bases(out, iw, it, ew, et, h, S, N):
    """Write the 16 term bases (each term is its base raised to its power)."""
    out[:, 0] = iw
    out[:, 1] = it
    out[:, 2] = N / it
    out[:, 3] = iw * it
    out[:, 4] = et
    out[:, 5] = ew
    out[:, 6] = et
    out[:, 7] = S * N
    out[:, 8] = et / iw
    out[:, 9] = et / it
    out[:, 10] = N * et / iw
    out[:, 11] = N * et / it
    out[:, 12] = N
    out[:, 13] = S
    out[:, 14] = h
    out[:, 15] = 1.0


def feature_matrix(bases: dict, S, N, powers=None) -> tuple[np.ndarray, np.ndarray]:
    """The 16-term map over n configurations at once.

    ``bases`` holds the keys of :func:`schedule_bases`; its values, ``S``
    and ``N`` broadcast to one length n.  Returns the ``(n, 16)`` feature
    matrix and a length-n mask of the rows inside the map's domain: both
    areas positive, no negative base, no zero base under a negative power
    and every entry finite.  Rows outside the domain hold unspecified
    values.  Finite bases with positive areas, nonnegative energies and
    peak, and positive S and N are in the domain unless a product or ratio
    overflows or underflows.
    """
    p = _powers(powers)
    cols = _columns(bases, S, N)
    n = np.broadcast(*cols).size
    S, N = (np.broadcast_to(x, (n,)) for x in cols[5:])
    bad = (S <= 0) | (N <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise FeatureError(f"S and N must be positive, got S={S[i]}, N={N[i]}")
    F = np.empty((n, 16))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        _fill_bases(F, *cols)
        # positive areas; each base positive under a negative power, else nonnegative
        ok = (F[:, 0] > 0) & (F[:, 1] > 0) & np.where(np.array(p) < 0, F > 0, F >= 0).all(axis=1)
        np.power(F, p, out=F)
        ok &= np.isfinite(F).all(axis=1)
    return F, ok


def checked_feature_matrix(bases: dict, S, N, powers=None, refused=None) -> np.ndarray:
    """The ``(n, 16)`` matrix of :func:`feature_matrix` when every row is in
    the domain; otherwise a :class:`FeatureError` for the first row outside
    it: its ``refused`` message (a dict of messages by row index) if it has
    one, else the message naming that row's first failing term.
    """
    F, ok = feature_matrix(bases, S, N, powers)
    if ok.all():
        return F
    i = int(np.argmin(ok))
    if refused and i in refused:
        raise FeatureError(refused[i])
    p = _powers(powers)
    B = np.empty((1, 16))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        _fill_bases(B, *(np.broadcast_to(c, ok.shape)[i:i + 1] for c in _columns(bases, S, N)))
    for j, (name, base) in enumerate(zip(TERM_NAMES, B[0])):
        den = B[0, _DENOMINATORS[j]] if j in _DENOMINATORS else 1.0
        if den <= 0.0:
            raise FeatureError(f"zero or negative denominator for term {name!r}: {den}")
        if base < 0.0:
            raise FeatureError(f"negative base for term {name!r}: {base}")
        if base == 0.0 and p[j] < 0.0:
            raise FeatureError(f"zero base with negative power for term {name!r}")
    FeatureVector(F[i].tolist(), p)  # validation names a non-finite entry
    raise FeatureError(f"configuration {i} is outside the feature map's domain")


def compute_features(
    schedule: Schedule,
    policy: MarkerPolicy,
    N: float,
    powers=None,
) -> FeatureVector:
    """Feature vector of a schedule at model size N (billions), over its
    horizon S.

    Raises :class:`FeatureError` when an integral that appears in a
    denominator (or under a negative power) vanishes, e.g. for a
    zero-length or zero-rate warmup.
    """
    bases = schedule_bases(schedule, policy)
    p = _powers(powers)
    return FeatureVector(checked_feature_matrix(bases, schedule.S, N, p)[0].tolist(), p)
