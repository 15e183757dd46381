"""Loss-prediction laws: linear regression of log loss on schedule features.

``fit`` solves ordinary least squares for the 16 coefficients against the
natural-log final losses of a set of training runs (divergent runs are
excluded).  ``predict`` evaluates a fitted law on a new configuration and
``rank`` orders candidate configurations, gating out those the divergence
criterion rejects.

Every command prices through one route, so a config has one log loss
whichever command prices it and whatever batch it is in:
:func:`_config_bases` (bases under the law's mode),
:func:`~optlaws.features.checked_feature_matrix` (the 16-term map, which
raises the error of the first config outside its domain; ``rank`` lists
such configs as unpriced instead) and :func:`_log_losses` (the contraction,
term by term).
``_config_bases`` takes one :class:`~optlaws.schedule.Schedule` (``predict``)
or a :class:`~optlaws.schedule.ScheduleTable` of many (``rank`` through a
:class:`ConfigBatch`, ``sweep`` through four-phase columns); the table's
elements equal the schedule's values exactly.  It alone reads the law's
mode: a continual-mode law reads pre-training only through its LR area
(:attr:`PretrainContext.area`, one number per config) and refuses a config
without one.

``SimpleLaw`` is the fixed-model-size five-term law: :func:`simple_law_eval`
prices it from the integrals :func:`~optlaws.features.rule_bases` gives under
the ``"all-a1"`` rule, and :func:`prop1_gap` gives its asymptotic gap between
the cosine-cooldown and constant-then-cooldown families in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter

import numpy as np

from .divergence import DEFAULT_PARAMS, DivergenceParams, gated_criteria
from .features import (
    DEFAULT_MARKER_RULE,
    DEFAULT_POWERS,
    ESCAPE_INDICES,
    MARKER_RULES,
    TERM_NAMES,
    FeatureError,
    FeatureVector,
    LR_SCALE,
    Normalizer,
    checked_feature_matrix,
    feature_matrix,
    rule_bases,
)
from .schedule import Schedule, ScheduleTable, build_general_schedule, json_input

__all__ = [
    "DIVERGED_LOSS",
    "LawFitError",
    "LossRuleError",
    "RunRecord",
    "RunTable",
    "RunConfig",
    "PretrainContext",
    "ConfigBatch",
    "FittedLaw",
    "RankedConfig",
    "SimpleLaw",
    "fit",
    "predict",
    "general_log_losses",
    "rank",
    "continual_features",
    "simple_law_eval",
    "prop1_gap",
    "reference_law",
    "REFERENCE_COEFFICIENTS",
]

# Loss recorded for runs that blew up; mirrors the plateau convention used
# when the grids behind the reference coefficients were assembled.
DIVERGED_LOSS = 7.0

# Fitted coefficients shipped with the package, in table order (convergence,
# escape, mixed, bias).  These were fitted on runs we cannot reproduce here,
# so predictions from them are reference-only.
REFERENCE_COEFFICIENTS = (
    -6.92e-4, -1.27e-3, -4.68e-2, 4.65e-2,
    9.62e-3, 1.92e-2, -5.05e-2, -1.82e-1,
    -4.68e-2, -4.18e-2, -1.19e-1, 2.18e-1,
    3.1e-1, 6.98e-1, 5.26e-2, 3.14e-1,
)


class LawFitError(ValueError):
    """Fitting is impossible for the supplied records."""


class LossRuleError(ValueError):
    """A non-divergent run whose loss is not > 0; ``row`` is its index."""

    def __init__(self, row: int, loss: float):
        super().__init__(f"non-divergent run needs loss > 0, got {loss}")
        self.row = row


def _loss_rule(loss, diverged) -> np.ndarray:
    """The losses of a run log's column, or of one run: a divergent run's
    loss reads :data:`DIVERGED_LOSS`, and a non-divergent run needs loss > 0,
    else :class:`LossRuleError` names the first that breaks it."""
    loss = np.where(diverged, DIVERGED_LOSS, loss)
    bad = np.flatnonzero(~(loss > 0))
    if bad.size:
        raise LossRuleError(int(bad[0]), float(loss.flat[bad[0]]))
    return loss


@dataclass(frozen=True)
class RunRecord:
    """One training run, as a row of the run-log CSV.

    Learning rates are raw (pre-normalization); the warmup, decay and
    cooldown markers and the horizon are billions of tokens; ``model_B`` is
    billions of learnable parameters.
    """

    model_B: float
    tokens_B: float
    eta1: float
    eta2: float
    a1_B: float
    a2_B: float
    a3_B: float
    loss: float
    diverged: bool = False

    def __post_init__(self):
        object.__setattr__(self, "loss", float(_loss_rule(self.loss, self.diverged)))

    def normalized_schedule(self, normalizer: Normalizer = Normalizer()) -> Schedule:
        return build_general_schedule(
            normalizer.normalize_lr(self.eta1),
            normalizer.normalize_lr(self.eta2),
            self.a1_B,
            self.a2_B,
            self.a3_B,
            self.tokens_B,
        )


@dataclass(frozen=True)
class RunTable:
    """A run log as columns: a float array for each number field of
    :class:`RunRecord` and a bool array ``diverged``, one element per run.

    The loss rule of :func:`_loss_rule` is applied once, over the
    columns.
    """

    model_B: np.ndarray
    tokens_B: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    a1_B: np.ndarray
    a2_B: np.ndarray
    a3_B: np.ndarray
    loss: np.ndarray
    diverged: np.ndarray

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        for name in names[:-1]:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "diverged", np.asarray(self.diverged, dtype=bool))
        shapes = {getattr(self, name).shape for name in names}
        if self.loss.ndim != 1 or shapes != {self.loss.shape}:
            raise ValueError("run table columns must be 1-D arrays of one length")
        object.__setattr__(self, "loss", _loss_rule(self.loss, self.diverged))

    def __len__(self) -> int:
        return len(self.loss)

    @classmethod
    def from_records(cls, records) -> "RunTable":
        """The table of a sequence of :class:`RunRecord`."""
        names = [f.name for f in fields(cls)]
        rows = np.array(list(map(attrgetter(*names), records)), dtype=float).reshape(-1, len(names))
        return cls(*rows.T[:-1], rows[:, -1] != 0.0)


@dataclass(frozen=True)
class PretrainContext:
    """The schedule a continual-training run resumes from; with no schedule,
    the horizon must be given and not positive (no pre-training area)."""

    schedule: Schedule | None
    S: float | None = None  # defaults to the full pre-training horizon

    def __post_init__(self):
        if self.schedule is None and (self.S is None or self.S > 0.0):
            raise FeatureError("pre_S > 0 requires the pre-training schedule")

    @property
    def area(self) -> float:
        """The pre-training LR area: the integral of eta over [0, S]."""
        if self.schedule is None:
            return 0.0
        return self.schedule.integral(0.0, self.schedule.S if self.S is None else self.S, "eta")


@dataclass(frozen=True)
class RunConfig:
    """A candidate configuration: normalized schedule plus model size."""

    schedule: Schedule
    N: float
    pre: PretrainContext | None = None


@dataclass(frozen=True)
class ConfigBatch:
    """Candidate configurations as arrays: their schedules as one table, their
    model sizes, and the LR area of the pre-training run each continues from
    (:attr:`PretrainContext.area`; NaN for a config with no context).
    """

    schedules: ScheduleTable
    N: np.ndarray
    pre_area: np.ndarray

    @classmethod
    def from_configs(cls, configs) -> "ConfigBatch":
        """The batch of a list of :class:`RunConfig`."""
        configs = list(configs)
        if not configs:
            raise ValueError("rank needs at least one configuration")
        return cls(
            ScheduleTable.from_schedules([cfg.schedule for cfg in configs]),
            np.array([cfg.N for cfg in configs], dtype=float),
            np.array([math.nan if cfg.pre is None else cfg.pre.area for cfg in configs]),
        )


@dataclass(frozen=True)
class FittedLaw:
    """Coefficients, powers and conventions of one fitted law."""

    c: tuple[float, ...]
    powers: tuple[float, ...] = DEFAULT_POWERS
    lr_scale: float = LR_SCALE
    policy_rule: str = DEFAULT_MARKER_RULE
    mode: str = "pretrain"  # or "continual"
    escape_terms: bool = True
    residual_rms: float | None = None
    condition_number: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        object.__setattr__(self, "powers", tuple(float(x) for x in self.powers))
        if len(self.c) != 16 or len(self.powers) != 16:
            raise ValueError("a law carries exactly 16 coefficients and powers")
        for field in ("c", "powers"):
            values = getattr(self, field)
            if not all(map(math.isfinite, values)):
                i = next(i for i, x in enumerate(values) if not math.isfinite(x))
                raise ValueError(f"law {field}[{i}] ({TERM_NAMES[i]}) must be finite, got {values[i]}")
        if type(self.escape_terms) is not bool:
            raise ValueError(f"law field 'escape_terms' must be a bool, got {self.escape_terms!r}")
        if self.mode not in ("pretrain", "continual"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.policy_rule not in MARKER_RULES:
            raise ValueError(f"unknown marker policy rule {self.policy_rule!r}")
        Normalizer(self.lr_scale)  # rejects a non-finite or non-positive scale

    def as_continual(self) -> "FittedLaw":
        """Same coefficients applied with the continual-training feature map."""
        return replace(self, mode="continual")

    def to_json(self) -> str:
        payload = {
            "c": list(self.c),
            "powers": list(self.powers),
            "lr_scale": self.lr_scale,
            "policy": self.policy_rule,
            "mode": self.mode,
            "escape_terms": self.escape_terms,
            "residual_rms": self.residual_rms,
            "condition_number": self.condition_number,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FittedLaw":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"a law file holds a JSON object, not {type(d).__name__}")
        with json_input("law") as numbers:
            return cls(
                c=tuple(numbers(d["c"], "c")),
                powers=tuple(numbers(d["powers"], "powers")),
                lr_scale=numbers([d["lr_scale"]], "lr_scale")[0],
                policy_rule=d["policy"],
                mode=d["mode"],
                escape_terms=d.get("escape_terms", True),
                **{k: None if d.get(k) is None else numbers([d[k]], k)[0]
                   for k in ("residual_rms", "condition_number")},
            )


def reference_law() -> FittedLaw:
    """The shipped coefficient preset.  Reference only: fitted elsewhere."""
    return FittedLaw(c=REFERENCE_COEFFICIENTS)


_NEEDS_PRE = "continual-mode law needs a pre-training context"


def continual_features(
    law: FittedLaw,
    pre_schedule: Schedule | None,
    pre_S: float,
    config: RunConfig,
) -> FeatureVector:
    """Feature map for continual training: the one-config case of the
    continual-mode route (see :func:`_config_bases`), applied whatever the
    law's mode, after a pre-training run on ``pre_schedule`` up to ``pre_S``
    (the pair a :class:`PretrainContext` holds, and checks).
    """
    bases, S, N, refused = _config_bases(law.as_continual(), config.schedule, config.N,
                                         PretrainContext(pre_schedule, pre_S).area)
    F = checked_feature_matrix(bases, S, N, law.powers, refused)
    return FeatureVector(F[0].tolist(), law.powers)


def _config_bases(law: FittedLaw, schedules, N, pre_area=None):
    """Bases, S and N arrays of configs under the law's mode, and the message
    of each config (by index) the continual rescaling refuses.

    ``schedules`` is one :class:`Schedule` or a :class:`ScheduleTable`, and
    ``N`` its model size(s); ``pre_area`` is the LR area of the pre-training
    run(s) each continues from (NaN or None: no pre-training context, which
    the continual mode refuses).  The pretrain mode ignores it.

    The continual mode divides the tail slope energy by the fourth power of
    the peak rate on [a_e2, S] of the continual schedule and adds the
    pre-training area to the warmup area.  A refused config, one without a
    positive peak there, gets a NaN tail energy: outside the domain.
    """
    row = lambda x: np.array(x, dtype=float, ndmin=1)
    bases = {k: row(v) for k, v in rule_bases(schedules, law.policy_rule).items()}
    S = schedules.S
    refused = {}
    if law.mode == "continual":
        if pre_area is None or np.isnan(pre_area).any():
            raise FeatureError(_NEEDS_PRE)
        a_e2 = MARKER_RULES[law.policy_rule](*schedules.markers)[3]
        h_tail = row(schedules.max_rate(a_e2, S))
        at = lambda x, i: x[i].item() if isinstance(x, np.ndarray) else x
        refused = {i: f"continual rescaling needs a positive peak rate on [{at(a_e2, i)}, {at(S, i)}]"
                   for i in np.flatnonzero(~(h_tail > 0.0)).tolist()}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tail = bases["tail_energy"] / h_tail ** 4
        bases["tail_energy"] = np.where(h_tail > 0.0, tail, np.nan)
        bases["warmup_area"] = bases["warmup_area"] + pre_area
    return bases, row(S), row(N), refused


def _log_losses(c, F: np.ndarray) -> np.ndarray:
    """Log losses ``F @ c``, accumulated term by term in table order, so a
    row gives the same bits alone or in any batch."""
    with np.errstate(invalid="ignore", over="ignore"):  # rows outside the domain
        out = c[0] * F[:, 0]
        for j in range(1, len(c)):
            out += c[j] * F[:, j]
    return out


def general_log_losses(law: FittedLaw, eta1, eta2, a1, a2, a3, S, N) -> np.ndarray:
    """Predicted log losses of ``build_general_schedule(eta1, eta2, a1, a2, a3, S)``
    configurations at model size N, all given as arrays (normalized rates,
    billions), priced in one pass.  They have no pre-training context, which
    a continual-mode law refuses."""
    table = ScheduleTable.four_phase(eta1, eta2, a1, a2, a3, S)
    bases, S, N, _ = _config_bases(law, table, N)
    return _log_losses(law.c, checked_feature_matrix(bases, S, N, law.powers))


def _design_matrix(runs: RunTable, powers, policy_rule: str, normalizer: Normalizer):
    keep = ~runs.diverged
    if not keep.any():
        raise LawFitError("no fittable rows: every record is divergent")
    col = lambda name: getattr(runs, name)[keep]
    S, lr = col("tokens_B"), normalizer.normalize_lr
    table = ScheduleTable.four_phase(lr(col("eta1")), lr(col("eta2")), col("a1_B"), col("a2_B"),
                                     col("a3_B"), S)
    A = checked_feature_matrix(rule_bases(table, policy_rule), S, col("model_B"), powers)
    y = np.log(col("loss"))
    return A, y


def fit(
    records,
    powers=None,
    policy_rule: str = DEFAULT_MARKER_RULE,
    include_escape: bool = True,
    normalizer: Normalizer = Normalizer(),
) -> FittedLaw:
    """Ordinary least squares of natural-log loss on the feature vector.

    ``records`` is a :class:`RunTable` or a sequence of :class:`RunRecord`,
    converted to a table once.  Divergent records are excluded.  Columns are
    rescaled to unit RMS before the solve (undone afterwards) and one
    refinement pass is applied, so noiseless model-generated data refits to
    residuals near machine precision.  Raises :class:`LawFitError` when fewer than n_terms + 1
    non-divergent rows remain or the design matrix is rank deficient.
    """
    powers = DEFAULT_POWERS if powers is None else tuple(float(p) for p in powers)
    runs = records if isinstance(records, RunTable) else RunTable.from_records(records)
    A_full, y = _design_matrix(runs, powers, policy_rule, normalizer)
    if include_escape:
        cols = list(range(16))
    else:
        cols = [i for i in range(16) if i not in ESCAPE_INDICES]
    A = A_full[:, cols]
    n_rows, n_terms = A.shape
    if n_rows < n_terms + 1:
        raise LawFitError(
            f"need at least {n_terms + 1} non-divergent records, got {n_rows}"
        )
    scale = np.sqrt(np.mean(A * A, axis=0))
    scale[scale == 0.0] = 1.0
    A_eq = A / scale
    x, _, rank_, sv = np.linalg.lstsq(A_eq, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if rank_ < n_terms:
        raise LawFitError(
            f"rank-deficient design matrix: rank {rank_} < {n_terms} "
            f"(condition number {cond:.3e})"
        )
    # One refinement pass knocks out the roundoff left by the first solve.
    resid = y - A_eq @ x
    x = x + np.linalg.lstsq(A_eq, resid, rcond=None)[0]
    c_sub = x / scale
    c = np.zeros(16)
    c[cols] = c_sub
    resid = A_full @ c - y
    rms = float(np.sqrt(np.mean(resid * resid)))
    return FittedLaw(
        c=tuple(c),
        powers=powers,
        lr_scale=normalizer.lr_scale,
        policy_rule=policy_rule,
        mode="pretrain",
        escape_terms=include_escape,
        residual_rms=rms,
        condition_number=cond,
    )


def predict(law: FittedLaw, config: RunConfig) -> dict:
    """Predicted {log_loss, loss} of a configuration under a fitted law."""
    bases, S, N, refused = _config_bases(law, config.schedule, config.N,
                                         None if config.pre is None else config.pre.area)
    F = checked_feature_matrix(bases, S, N, law.powers, refused)
    log_loss = float(_log_losses(law.c, F)[0])
    try:
        return {"log_loss": log_loss, "loss": math.exp(log_loss)}
    except OverflowError:
        raise ValueError(f"log loss {log_loss!r} is too large: exp overflows") from None


@dataclass(frozen=True)
class RankedConfig:
    index: int
    verdict: str  # "ok" | "unpriced" | "diverge"
    R: float
    eta_L: float
    log_loss: float | None
    loss: float | None


def rank(
    law: FittedLaw,
    batch: ConfigBatch,
    gate: DivergenceParams = DEFAULT_PARAMS,
) -> list[RankedConfig]:
    """Order candidate configurations by predicted loss, gated for divergence.

    Survivors of the gate sort ascending by predicted log loss, ties broken
    by smaller peak rate, then smaller warmup, then input order.  Survivors
    the feature map cannot price (for example a zero warmup under a
    pretrain-mode law) follow with verdict "unpriced", and configs with
    R > 1 come last with verdict "diverge"; both keep input order.  The
    whole batch is gated and priced in one pass of array operations.
    """
    table = batch.schedules
    eta_max, warmup = table.eta_max, table.markers[0]
    R, eta_L = gated_criteria(eta_max, warmup, batch.N, table.S, gate)
    survive = ~(R > 1.0)
    # configs the gate rejects are priced too, from no pre-training, and never listed
    bases, S, N, _ = _config_bases(law, table, batch.N, np.where(survive, batch.pre_area, 0.0))
    F, priced = feature_matrix(bases, S, N, law.powers)
    log_losses = _log_losses(law.c, F)
    ok = np.flatnonzero(priced & survive)
    R, eta_L, ll = R.tolist(), eta_L.tolist(), log_losses.tolist()
    loss = {}
    for i in ok.tolist():
        try:
            loss[i] = math.exp(ll[i])
        except OverflowError:
            raise ValueError(
                f"config {i}: log loss {ll[i]!r} is too large: exp overflows") from None
    order = ok[np.lexsort((warmup[ok], eta_max[ok], log_losses[ok]))].tolist()
    return (
        [RankedConfig(i, "ok", R[i], eta_L[i], ll[i], loss[i]) for i in order]
        + [RankedConfig(i, "unpriced", R[i], eta_L[i], None, None)
           for i in np.flatnonzero(survive & ~priced).tolist()]
        + [RankedConfig(i, "diverge", R[i], eta_L[i], None, None)
           for i in np.flatnonzero(~survive).tolist()]
    )


@dataclass(frozen=True)
class SimpleLaw:
    """Fixed-model-size law with five positive coefficients.

    log(loss) = c1*Iw^-a1 + c2*It^-a2 + c3_bias/S + b
              + c4*Ew^a3 + c5*Et^a4

    with Iw, It the warmup/cooldown area integrals and Ew, Et the
    warmup/cooldown slope energies split at the warmup end a.
    """

    c1: float = 1.0
    c2: float = 1.0
    c3_bias: float = 1.0
    c4: float = 1.0
    c5: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 1.0
    alpha4: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        for name in ("c1", "c2", "c3_bias", "c4", "c5", "alpha1", "alpha2", "alpha3", "alpha4"):
            if getattr(self, name) <= 0:
                raise ValueError(f"SimpleLaw field {name} must be strictly positive")


def simple_law_eval(law: SimpleLaw, schedule: Schedule) -> float:
    """Evaluate the five-term law on any schedule via exact integrals.

    The integrals split at the warmup marker a1 (the ``"all-a1"`` marker
    rule of :func:`~optlaws.features.rule_bases`), so a constant phase, if
    present, is folded into the cooldown integrals: everything past a1
    counts as cooldown here.
    """
    bases = rule_bases(schedule, "all-a1")
    iw, it = bases["warmup_area"], bases["tail_area"]
    if iw <= 0 or it <= 0:
        raise ValueError(f"law needs positive area integrals, got warmup {iw}, tail {it}")
    return (
        law.c1 * iw ** -law.alpha1
        + law.c2 * it ** -law.alpha2
        + law.c3_bias / schedule.S
        + law.b
        + law.c4 * bases["warmup_energy"] ** law.alpha3
        + law.c5 * bases["tail_energy"] ** law.alpha4
    )


def prop1_gap(
    law: SimpleLaw,
    r_a: float,
    r_ac: float,
    S: float,
    eta_max: float = 1.0,
) -> float:
    """|law(cosine cooldown) - law(const then linear cooldown)| at horizon S.

    Uses the closed forms of the two families with warmup a = r_a*S and
    cooldown start a_c = r_ac*S: the warmup terms coincide, the cosine
    family has tail area h(S-a)/2 and slope energy pi^2 h^2/(8(S-a)), and
    the constant family has tail area h(a_c-a) + h(S-a_c)/2 and slope
    energy h^2/(S-a_c).  The gap is finite for all S and decays to zero as
    S grows.
    """
    if not (0.0 < r_a <= r_ac < 1.0):
        raise ValueError(f"need 0 < r_a <= r_ac < 1, got r_a={r_a}, r_ac={r_ac}")
    if S <= 0 or eta_max <= 0:
        raise ValueError("S and eta_max must be positive")
    a = r_a * S
    a_c = r_ac * S
    h = eta_max
    cos_val = (
        law.c2 * (2.0 / (h * (S - a))) ** law.alpha2
        + law.c5 * (math.pi ** 2 * h * h / (8.0 * (S - a))) ** law.alpha4
    )
    const_val = (
        law.c2 * (h * (a_c - a) + 0.5 * h * (S - a_c)) ** -law.alpha2
        + law.c5 * (h * h / (S - a_c)) ** law.alpha4
    )
    return abs(cos_val - const_val)
