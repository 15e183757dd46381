"""Piecewise learning-rate schedules with exact integral functionals.

A schedule is an ordered list of contiguous segments on [0, S].  Times are
normalized token counts (billions of tokens) and rates are normalized
learning rates (raw LR divided by the ``lr_scale`` of the normalizer, so
that every supported configuration lands in (0, 1]).

Three functionals of a schedule drive everything downstream:

    eta      ->  integral of eta(t)
    eta_sq   ->  integral of eta(t)^2
    deta_sq  ->  integral of eta'(t)^2

All three have closed forms per segment kind (polynomial for linear
segments, trigonometric antiderivatives for cosine segments), so integrals
over arbitrary sub-intervals are exact up to float rounding.
"""

from __future__ import annotations

import contextlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Segment",
    "Schedule",
    "ScheduleError",
    "FUNCTIONALS",
    "ScheduleTable",
    "build_general_schedule",
    "warmup_cosine_schedule",
    "warmup_const_cooldown_schedule",
]

SEGMENT_KINDS = ("linear", "constant", "cosine")
FUNCTIONALS = ("eta", "eta_sq", "deta_sq")


class ScheduleError(ValueError):
    """Invalid schedule construction, out-of-domain query or malformed JSON input."""


@contextlib.contextmanager
def json_input(noun: str):
    """A ``with`` block that reads the fields of a JSON ``noun``: "config" (one
    entry of a file), "schedule" or "law" (what a whole file holds), or a flag.

    The block gets ``numbers(values, field)``, the one reader of JSON numbers:
    it returns the values of the named field if each is an int or a float (not
    a bool) that a float can hold, as JSON wrote it.  Anything else, a missing
    field and a value of the wrong shape raise one :class:`ScheduleError` line
    naming the field.  Domain checks (finite, positive, ordered) are the caller's.
    """
    def numbers(values, field: str):
        types = set(map(type, values))
        if not types <= {int, float}:
            bad = next(x for x in values if type(x) not in (int, float))
            raise ScheduleError(f"{noun} field {field!r} must be a number, got {json.dumps(bad)}")
        if int in types:
            try:
                [float(x) for x in values]
            except OverflowError:  # an integer literal of more than 308 digits
                raise ScheduleError(f"{noun} field {field!r} is too large for a float") from None
        return values

    what = noun if noun == "config" else f"{noun} file"
    try:
        yield numbers
    except KeyError as exc:
        raise ScheduleError(f"{what} is missing field {exc}") from None
    except TypeError as exc:  # a list where an object belongs, or the like
        raise ScheduleError(f"malformed {what}: {exc}") from None


# Closed forms of one segment, written with arithmetic operators and np.sin
# and np.cos only: Segment calls them with floats and ScheduleTable with
# numpy arrays, so both evaluate the same expression in the same order.


def _linear_value(e0, e1, tau, length):
    """Rate of the linear piece e0 -> e1 of the given length, tau past its start."""
    return e0 + (e1 - e0) * tau / length


def _segment_value(kind, t0, t1, e0, e1, t):
    """Rate at t of the segment (kind, t0, t1, e0, e1)."""
    if kind == "constant":
        return np.full(t.shape, e0) if isinstance(t, np.ndarray) else e0
    if kind == "linear":
        return _linear_value(e0, e1, t - t0, t1 - t0)
    theta = math.pi * (t - t0) / (t1 - t0)
    return e1 + 0.5 * (e0 - e1) * (np.cos(theta) + 1.0)


def _steep_linear_integral(e0, e1, t0, t1, u, v, functional):
    """Integral of eta or eta^2 over [u, v] of a linear segment whose slope
    overflows (a steep rise over a tiny length), where the closed form's
    inf * 0 gives NaN: the exact trapezoid rules of a linear rate, from its
    values at u and v, which need no slope."""
    a = _linear_value(e0, e1, u - t0, t1 - t0)
    b = _linear_value(e0, e1, v - t0, t1 - t0)
    w = v - u
    if functional == "eta":
        return (w * a + w * b) / 2.0
    return (w * a * a + w * a * b + w * b * b) / 3.0


def _segment_integral(kind, t0, t1, e0, e1, u, v, functional):
    """Integral over [u, v] (within [t0, t1]) of the functional on the segment."""
    if kind == "constant":
        if functional == "eta":
            return e0 * (v - u)
        if functional == "eta_sq":
            return e0 ** 2 * (v - u)
        return 0.0
    if kind == "linear":
        m = (e1 - e0) / (t1 - t0)
        if functional == "deta_sq":
            return m * m * (v - u)
        if not isinstance(m, np.ndarray) and not math.isfinite(m):
            return _steep_linear_integral(e0, e1, t0, t1, u, v, functional)
        tu, tv = u - t0, v - t0
        if functional == "eta":
            out = (e0 * tv + 0.5 * m * tv * tv) - (e0 * tu + 0.5 * m * tu * tu)
        else:
            out = (e0 * e0 * tv + e0 * m * tv * tv + m * m * tv ** 3 / 3.0) - (
                e0 * e0 * tu + e0 * m * tu * tu + m * m * tu ** 3 / 3.0
            )
        if isinstance(m, np.ndarray) and not np.isfinite(m).all():  # a ScheduleTable column
            steep = _steep_linear_integral(e0, e1, t0, t1, u, v, functional)
            return np.where(np.isfinite(m), out, steep)
        return out
    # cosine: eta = c + A*cos(theta), theta = pi*(t - t0)/length
    ell = t1 - t0
    amp = 0.5 * (e0 - e1)
    c = e1 + amp
    thu = math.pi * (u - t0) / ell
    thv = math.pi * (v - t0) / ell
    if functional == "eta":
        return c * (v - u) + amp * ell / math.pi * (np.sin(thv) - np.sin(thu))
    if functional == "eta_sq":
        # integral of cos^2 in t: (ell/pi) * [theta/2 + sin(2 theta)/4]
        sq = lambda th: 0.5 * th + 0.25 * np.sin(2.0 * th)
        return (
            c * c * (v - u)
            + 2.0 * c * amp * ell / math.pi * (np.sin(thv) - np.sin(thu))
            + amp * amp * ell / math.pi * (sq(thv) - sq(thu))
        )
    # deta_sq: eta' = -(A pi / ell) sin(theta)
    sn = lambda th: 0.5 * th - 0.25 * np.sin(2.0 * th)
    return amp * amp * math.pi / ell * (sn(thv) - sn(thu))


@dataclass(frozen=True)
class Segment:
    """One piece of a schedule on [t0, t1].

    ``linear`` interpolates eta0 -> eta1, ``constant`` requires
    eta0 == eta1, and ``cosine`` follows half a cosine period,

        eta(t) = eta1 + (eta0 - eta1)/2 * (cos(pi*(t - t0)/(t1 - t0)) + 1),

    which is the usual cosine cooldown shape when eta1 = 0.
    """

    kind: str
    t0: float
    t1: float
    eta0: float
    eta1: float

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ScheduleError(f"unknown segment kind {self.kind!r}")
        if not all(map(math.isfinite, (self.t0, self.t1, self.eta0, self.eta1))):
            raise ScheduleError(
                "segment times and rates must be finite, got "
                f"t0={self.t0}, t1={self.t1}, eta0={self.eta0}, eta1={self.eta1}"
            )
        if not self.t0 < self.t1:
            raise ScheduleError(f"segment needs t0 < t1, got [{self.t0}, {self.t1}]")
        if self.eta0 < 0 or self.eta1 < 0:
            raise ScheduleError("segment rates must be nonnegative")
        if self.kind == "constant" and self.eta0 != self.eta1:
            raise ScheduleError("constant segment requires eta0 == eta1")

    @property
    def length(self) -> float:
        return self.t1 - self.t0

    @property
    def slope(self) -> float:
        """Slope of a linear segment (0 for constant)."""
        if self.kind == "cosine":
            raise ScheduleError("cosine segment has no constant slope")
        return (self.eta1 - self.eta0) / self.length

    def value(self, t):
        """Rate at t; t may be a float or an array within [t0, t1]."""
        return _segment_value(self.kind, self.t0, self.t1, self.eta0, self.eta1, t)

    def derivative(self, t: float) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "linear":
            return self.slope
        theta = math.pi * (t - self.t0) / self.length
        return -0.5 * (self.eta0 - self.eta1) * math.pi / self.length * math.sin(theta)

    def max_value(self, u: float, v: float) -> float:
        """Max of eta on [u, v] within the segment (all kinds are monotone)."""
        return max(self.value(u), self.value(v))

    def integral(self, u, v, functional: str):
        """Exact integral of the functional over [u, v] within [t0, t1];
        u and v may be floats or arrays."""
        if functional not in FUNCTIONALS:
            raise ScheduleError(f"unknown functional {functional!r}")
        return _segment_integral(
            self.kind, self.t0, self.t1, self.eta0, self.eta1, u, v, functional
        )


@dataclass(frozen=True)
class Schedule:
    """Immutable piecewise schedule on [0, S] with phase markers (a1, a2, a3).

    Segments must be contiguous, cover [0, S] exactly, and agree at joints
    (eta is continuous).  All operations are pure.
    """

    segments: tuple[Segment, ...]
    S: float
    markers: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "markers", tuple(float(a) for a in self.markers))
        segs = self.segments
        if not segs:
            raise ScheduleError("schedule needs at least one segment")
        if segs[0].t0 != 0.0:
            raise ScheduleError("first segment must start at t = 0")
        if segs[-1].t1 != self.S:
            raise ScheduleError(f"last segment must end at S = {self.S}")
        for left, right in zip(segs, segs[1:]):
            if left.t1 != right.t0:
                raise ScheduleError(
                    f"segments not contiguous at t = {left.t1} vs {right.t0}"
                )
            if left.eta1 != right.eta0:
                raise ScheduleError(
                    f"eta discontinuous at t = {left.t1}: {left.eta1} vs {right.eta0}"
                )
        a1, a2, a3 = self.markers
        if not (0.0 <= a1 <= a2 <= a3 <= self.S):
            raise ScheduleError(f"markers must satisfy 0 <= a1 <= a2 <= a3 <= S, got {self.markers}")
        object.__setattr__(self, "_bounds", tuple(s.t0 for s in segs))

    def _segment_at(self, t: float) -> Segment:
        """Segment owning t, taking the right-hand piece at interior joints."""
        if not 0.0 <= t <= self.S:
            raise ScheduleError(f"t = {t} outside schedule domain [0, {self.S}]")
        return self.segments[bisect_right(self._bounds, t) - 1]

    def value(self, t):
        """Rate at t; t may be a float or an array within [0, S].

        Each time reads the segment :meth:`_segment_at` picks, so an array
        call equals the scalar calls element by element.
        """
        if not isinstance(t, np.ndarray):
            return self._segment_at(t).value(t)
        if t.size and not (0.0 <= t.min() and t.max() <= self.S):
            raise ScheduleError(f"times outside schedule domain [0, {self.S}]")
        owner = np.searchsorted(self._bounds, t, side="right") - 1
        out = np.empty(t.shape)
        for i, seg in enumerate(self.segments):
            mine = owner == i
            if mine.any():
                out[mine] = seg.value(t[mine])
        return out

    def derivative(self, t: float) -> float:
        """d eta/dt at t; at a joint this is the right-hand limit."""
        return self._segment_at(t).derivative(t)

    def pieces(self, u: float, v: float) -> list[tuple[Segment, float, float]]:
        """(segment, lo, hi) for every segment that [u, v] overlaps in more than
        a point, in time order; [lo, hi] is the overlap."""
        if not (0.0 <= u <= v <= self.S):
            raise ScheduleError(f"interval [{u}, {v}] outside schedule domain [0, {self.S}]")
        if u == v:
            return []
        # lo = max(u, t0) and hi = min(v, t1), without the cost of two calls
        return [(seg, seg.t0 if seg.t0 > u else u, seg.t1 if seg.t1 < v else v)
                for seg in self.segments if seg.t0 < v and u < seg.t1]

    @property
    def eta_max(self) -> float:
        """Supremum of eta over [0, S]."""
        return self.max_rate(0.0, self.S)

    def max_rate(self, u: float, v: float) -> float:
        """Supremum of eta over [u, v]."""
        pieces = self.pieces(u, v)
        if not pieces:  # u == v
            return self.value(u)
        return max([seg.max_value(lo, hi) for seg, lo, hi in pieces])

    def integral(self, u: float, v: float, functional: str) -> float:
        """Exact integral of eta, eta^2 or (eta')^2 over [u, v].

        Partial segments are split; the result is additive over adjacent
        intervals up to float rounding.
        """
        if functional not in FUNCTIONALS:
            raise ScheduleError(f"unknown functional {functional!r}")
        total = 0.0
        for seg, lo, hi in self.pieces(u, v):
            total += seg.integral(lo, hi, functional)
        return total

    def to_json(self) -> str:
        payload = {
            "S": self.S,
            "markers": list(self.markers),
            "segments": [
                {"kind": s.kind, "t0": s.t0, "t1": s.t1, "eta0": s.eta0, "eta1": s.eta1}
                for s in self.segments
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """The schedule :meth:`to_json` wrote; a malformed payload raises a
        :class:`ScheduleError` that names the field at fault."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ScheduleError(f"a schedule file holds a JSON object, not {type(payload).__name__}")
        with json_input("schedule") as numbers:
            segs = tuple(
                Segment(d["kind"], *(numbers([d[key]], key)[0] for key in ("t0", "t1", "eta0", "eta1")))
                for d in payload["segments"]
            )
            markers = tuple(numbers(payload["markers"], "markers"))
            if len(markers) != 3:
                raise ScheduleError(f"schedule field 'markers' holds 3 numbers, not {len(markers)}")
            return cls(segs, numbers([payload["S"]], "S")[0], markers)


def build_general_schedule(
    eta1: float, eta2: float, a1: float, a2: float, a3: float, S: float
) -> Schedule:
    """Four-phase schedule: warmup, decay, plateau, cooldown.

    Linear 0 -> eta1 on [0, a1], linear eta1 -> eta2 on [a1, a2], constant
    eta2 on [a2, a3], linear eta2 -> 0 on [a3, S].  Zero-length phases are
    dropped.  Markers are (a1, a2, a3).
    """
    if S <= 0:
        raise ScheduleError(f"S must be positive, got {S}")
    if not (0.0 <= a1 <= a2 <= a3 <= S):
        raise ScheduleError(f"markers must satisfy 0 <= a1 <= a2 <= a3 <= S, got {(a1, a2, a3)}")
    if eta1 < 0 or eta2 < 0:
        raise ScheduleError("rates must be nonnegative")
    pieces = _general_pieces(eta1, eta2, a1, a2, a3, S)
    segs = tuple(Segment(*p) for p in pieces if p[2] > p[1])
    return Schedule(segs, S, (a1, a2, a3))


def _general_pieces(eta1, eta2, a1, a2, a3, S):
    """(kind, t0, t1, eta0, eta1) of the four phases, zero-length ones included."""
    return (
        ("linear", 0.0, a1, 0.0, eta1),
        ("linear", a1, a2, eta1, eta2),
        ("constant", a2, a3, eta2, eta2),
        ("linear", a3, S, eta2, 0.0),
    )


class ScheduleTable:
    """n schedules as padded ``(n, k)`` arrays of segment kind (an index into
    ``SEGMENT_KINDS``), t0, t1, eta0 and eta1, with length-n arrays ``S`` and
    ``markers = (a1, a2, a3)``.

    Row i holds schedule i's segments in time order.  Empty segments
    (t0 == t1) pad the rows of shorter schedules and stand for the dropped
    phases of four-phase configurations; they never contribute.
    :meth:`integral`, :meth:`max_rate` and :attr:`eta_max` walk the columns
    with the segment closed forms above, so each element equals the
    :class:`Schedule` method on its row exactly.
    """

    def __init__(self, kind, t0, t1, eta0, eta1, S, markers):
        self.kind, self.t0, self.t1, self.eta0, self.eta1 = kind, t0, t1, eta0, eta1
        self.S = S
        self.markers = tuple(markers)
        # the kinds present in each column
        self._kinds = [[int(col[0])] if col.min() == col.max()
                       else np.flatnonzero(np.bincount(col, minlength=3)).tolist()
                       for col in kind.T]

    @classmethod
    def from_schedules(cls, schedules) -> "ScheduleTable":
        """The table of any :class:`Schedule` objects."""
        schedules = list(schedules)
        k = max(len(s.segments) for s in schedules)
        rows = np.array([
            [(SEGMENT_KINDS.index(g.kind), g.t0, g.t1, g.eta0, g.eta1) for g in s.segments]
            + [(SEGMENT_KINDS.index("constant"), s.S, s.S, 0.0, 0.0)] * (k - len(s.segments))
            for s in schedules
        ], dtype=float)
        S = np.array([s.S for s in schedules], dtype=float)
        markers = np.array([s.markers for s in schedules], dtype=float).T
        return cls(rows[..., 0].astype(int), *np.moveaxis(rows[..., 1:], -1, 0), S, markers)

    @classmethod
    def four_phase(cls, eta1, eta2, a1, a2, a3, S) -> "ScheduleTable":
        """The table of :func:`build_general_schedule` configurations given as
        columns (1-d arrays, or scalars that broadcast to them).

        An invalid configuration raises the error the scalar builder gives
        the first one.
        """
        args = [np.atleast_1d(x) for x in np.broadcast_arrays(
            *(np.asarray(x, dtype=float) for x in (eta1, eta2, a1, a2, a3, S)))]
        eta1, eta2, a1, a2, a3, S = args
        pieces = _general_pieces(eta1, eta2, a1, a2, a3, S)
        valid = (
            ~(S <= 0) & (0.0 <= a1) & (a1 <= a2) & (a2 <= a3) & (a3 <= S)
            & ~(eta1 < 0) & ~(eta2 < 0)
        )
        # Segment's and Schedule's checks: a nonempty phase has finite times
        # and rates, eta is continuous from one nonempty phase to the next,
        # and a constant phase is constant
        end, seen = 0.0, False
        for kind, t0, t1, e0, e1 in pieces:
            present = t0 < t1
            broken = ~(np.isfinite(t0) & np.isfinite(t1) & np.isfinite(e0) & np.isfinite(e1))
            broken = broken | (seen & (end != e0))
            if kind == "constant":
                broken = broken | (e0 != e1)
            valid &= ~(present & broken)
            end, seen = np.where(present, e1, end), seen | present
        if not valid.all():
            i = int(np.argmin(valid))
            build_general_schedule(*(float(x[i]) for x in args))
            raise ScheduleError(f"invalid four-phase configuration at index {i}")
        kind = np.array([SEGMENT_KINDS.index(p[0]) for p in pieces])
        # (t0, t1, eta0, eta1) x phase x config, so that column j of each
        # (n, 4) array is contiguous: the walks go column by column
        block = np.empty((4, 4, S.size))
        for i, piece in enumerate(pieces):
            for f, x in enumerate(piece[1:]):
                block[f, i] = x
        return cls(np.broadcast_to(kind, (S.size, 4)), *np.swapaxes(block, 1, 2), S,
                   (a1, a2, a3))

    def _check(self, u, v):
        inside = (0.0 <= u) & (u <= v) & (v <= self.S)
        if not inside.all():
            i = int(np.argmin(inside))
            u, v = (np.broadcast_to(x, self.S.shape)[i] for x in (u, v))
            raise ScheduleError(
                f"row {i}: interval [{u}, {v}] outside schedule domain [0, {self.S[i]}]")

    def _pieces(self, u, v):
        """(j, t0, t1, eta0, eta1) of each column j, with [lo, hi], its overlap
        with [u, v] (lo < hi where they overlap)."""
        for j in range(self.kind.shape[1]):
            t0, t1 = self.t0[:, j], self.t1[:, j]
            yield (j, t0, t1, self.eta0[:, j], self.eta1[:, j]), np.maximum(u, t0), np.minimum(v, t1)

    def _by_kind(self, seg, f, *args):
        """``f(kind, t0, t1, e0, e1, *args)`` on each row of a column, by the
        kind of that row's segment."""
        j, *ends = seg
        out = None
        for code in self._kinds[j]:
            part = f(SEGMENT_KINDS[code], *ends, *args)
            out = part if out is None else np.where(self.kind[:, j] == code, part, out)
        return out

    def integral(self, u, v, functional: str) -> np.ndarray:
        """Elementwise :meth:`Schedule.integral` of eta or (eta')^2 over [u, v]
        (u <= v within [0, S]).  eta^2 is left out: numpy's cube is not libm's."""
        if functional not in ("eta", "deta_sq"):
            raise ScheduleError(f"table integrals cover eta and deta_sq, not {functional!r}")
        self._check(u, v)
        total = 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for seg, lo, hi in self._pieces(u, v):
                part = self._by_kind(seg, _segment_integral, lo, hi, functional)
                total = total + np.where(lo < hi, part, 0.0)
        return total

    def max_rate(self, u, v) -> np.ndarray:
        """Elementwise :meth:`Schedule.max_rate`, with the comparisons of
        Python's max; where u == v, the rate at u of the last segment that
        starts at or before u, as :meth:`Schedule.value` reads it."""
        self._check(u, v)
        best = np.zeros(self.S.shape)
        seen = np.zeros(self.S.shape, dtype=bool)
        point = u == v
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for seg, lo, hi in self._pieces(u, v):
                _, t0, t1, _, _ = seg
                start = self._by_kind(seg, _segment_value, lo)
                end = self._by_kind(seg, _segment_value, hi)
                peak = np.where(end > start, end, start)
                inside = lo < hi
                best = np.where(inside & (~seen | (peak > best)), peak, best)
                seen |= inside
                best = np.where(point & (t0 < t1) & (t0 <= u), start, best)
        return best

    @property
    def eta_max(self) -> np.ndarray:
        """Elementwise :attr:`Schedule.eta_max`."""
        return self.max_rate(0.0, self.S)


def warmup_cosine_schedule(eta_max: float, a: float, S: float) -> Schedule:
    """Linear warmup 0 -> eta_max over [0, a], cosine decay to 0 over [a, S].

    Markers are (a, a, a): warmup end, cooldown start and plateau collapse
    to the single split point of this family.
    """
    if S <= 0 or not 0.0 <= a <= S:
        raise ScheduleError(f"need 0 <= a <= S with S > 0, got a={a}, S={S}")
    if eta_max < 0:
        raise ScheduleError("rates must be nonnegative")
    segs = []
    if a > 0:
        segs.append(Segment("linear", 0.0, a, 0.0, eta_max))
    if a < S:
        segs.append(Segment("cosine", a, S, eta_max, 0.0))
    return Schedule(tuple(segs), S, (a, a, a))


def warmup_const_cooldown_schedule(
    eta_max: float, a: float, a_c: float, S: float
) -> Schedule:
    """Linear warmup to eta_max on [0, a], constant on [a, a_c], linear to 0 on [a_c, S]."""
    return build_general_schedule(eta_max, eta_max, a, a, a_c, S)
