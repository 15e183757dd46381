"""Loss-prediction laws: linear regression of log loss on schedule features.

``fit`` solves ordinary least squares for the 16 coefficients against the
natural-log final losses of a set of training runs (divergent runs are
excluded).  ``predict`` evaluates a fitted law on a new configuration and
``rank`` orders candidate configurations, gating out those the divergence
criterion rejects.

``SimpleLaw`` is the fixed-model-size five-term law; its asymptotic gap
between the cosine-cooldown and constant-then-cooldown families has closed
forms evaluated by :func:`prop1_gap`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .divergence import (
    DEFAULT_PARAMS,
    CriterionResult,
    DivergenceParams,
    criterion_R,
    critical_rate,
)
from .features import (
    DEFAULT_POWERS,
    ESCAPE_INDICES,
    MARKER_RULES,
    FeatureError,
    FeatureVector,
    Normalizer,
    compute_features,
    features_from_bases,
    schedule_bases,
)
from .schedule import Schedule, build_general_schedule

__all__ = [
    "DIVERGED_LOSS",
    "LawFitError",
    "RunRecord",
    "RunConfig",
    "PretrainContext",
    "FittedLaw",
    "RankedConfig",
    "SimpleLaw",
    "fit",
    "predict",
    "rank",
    "continual_features",
    "simple_law_eval",
    "prop1_gap",
    "unit_simple_law",
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


@dataclass(frozen=True)
class RunRecord:
    """One training run in raw units.

    Learning rates are raw (pre-normalization), phase boundaries and the
    horizon are optimizer steps, and ``token_length``/``batch`` convert
    steps to tokens.  ``N`` is billions of learnable parameters.
    """

    eta1: float
    eta2: float
    a1: float
    a2: float
    a3: float
    S_steps: float
    token_length: int
    batch: int
    N: float
    final_loss: float
    diverged: bool = False

    def __post_init__(self):
        if self.diverged:
            object.__setattr__(self, "final_loss", DIVERGED_LOSS)
        elif not self.final_loss > 0:
            raise ValueError(f"non-divergent run needs final_loss > 0, got {self.final_loss}")

    @classmethod
    def from_billions(
        cls,
        model_B: float,
        tokens_B: float,
        eta1: float,
        eta2: float,
        a1_B: float,
        a2_B: float,
        a3_B: float,
        loss: float,
        diverged: bool = False,
    ) -> "RunRecord":
        """Record whose sizes are already billions of tokens."""
        return cls(
            eta1=eta1,
            eta2=eta2,
            a1=a1_B * 1e9,
            a2=a2_B * 1e9,
            a3=a3_B * 1e9,
            S_steps=tokens_B * 1e9,
            token_length=1,
            batch=1,
            N=model_B,
            final_loss=loss,
            diverged=diverged,
        )

    def normalized_schedule(self, normalizer: Normalizer = Normalizer()) -> Schedule:
        conv = lambda steps: normalizer.tokens_billions(steps, self.token_length, self.batch)
        return build_general_schedule(
            normalizer.normalize_lr(self.eta1),
            normalizer.normalize_lr(self.eta2),
            conv(self.a1),
            conv(self.a2),
            conv(self.a3),
            conv(self.S_steps),
        )


@dataclass(frozen=True)
class PretrainContext:
    """The schedule a continual-training run resumes from."""

    schedule: Schedule
    S: float | None = None  # defaults to the full pre-training horizon

    @property
    def horizon(self) -> float:
        return self.schedule.S if self.S is None else self.S


@dataclass(frozen=True)
class RunConfig:
    """A candidate configuration: normalized schedule plus model size."""

    schedule: Schedule
    N: float
    pre: PretrainContext | None = None


@dataclass(frozen=True)
class FittedLaw:
    """Coefficients, powers and conventions of one fitted law."""

    c: tuple[float, ...]
    powers: tuple[float, ...] = DEFAULT_POWERS
    lr_scale: float = 1.5e-2
    policy_rule: str = "a1/a3/a2"
    mode: str = "pretrain"  # or "continual"
    escape_terms: bool = True
    residual_rms: float | None = None
    condition_number: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        object.__setattr__(self, "powers", tuple(float(x) for x in self.powers))
        if len(self.c) != 16 or len(self.powers) != 16:
            raise ValueError("a law carries exactly 16 coefficients and powers")
        if self.mode not in ("pretrain", "continual"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.policy_rule not in MARKER_RULES:
            raise ValueError(f"unknown marker policy rule {self.policy_rule!r}")

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
        return cls(
            c=tuple(d["c"]),
            powers=tuple(d["powers"]),
            lr_scale=d["lr_scale"],
            policy_rule=d["policy"],
            mode=d["mode"],
            escape_terms=d.get("escape_terms", True),
            residual_rms=d.get("residual_rms"),
            condition_number=d.get("condition_number"),
        )


def reference_law() -> FittedLaw:
    """The shipped coefficient preset.  Reference only: fitted elsewhere."""
    return FittedLaw(c=REFERENCE_COEFFICIENTS)


def _featurize(law_powers, policy_rule: str, schedule: Schedule, N: float) -> FeatureVector:
    policy = MARKER_RULES[policy_rule](schedule)
    return compute_features(schedule, policy, N, powers=law_powers)


def features_for(law: FittedLaw, config: RunConfig) -> FeatureVector:
    """Feature vector of a config under the law's mode and conventions."""
    if law.mode == "continual":
        if config.pre is None:
            raise FeatureError("continual-mode law needs a pre-training context")
        return continual_features(law, config.pre.schedule, config.pre.horizon, config)
    return _featurize(law.powers, law.policy_rule, config.schedule, config.N)


def continual_features(
    law: FittedLaw,
    pre_schedule: Schedule | None,
    pre_S: float,
    config: RunConfig,
) -> FeatureVector:
    """Feature map for continual training.

    Two changes relative to pre-training, with coefficients and powers
    untouched: the tail slope energy is divided by the fourth power of the
    peak rate on [a_e2, S] of the continual schedule, and the warmup area
    gains the full pre-training area integral.
    """
    schedule = config.schedule
    policy = MARKER_RULES[law.policy_rule](schedule)
    bases = schedule_bases(schedule, policy)
    h_tail = schedule.max_rate(policy.a_e2, schedule.S)
    if h_tail <= 0.0:
        raise FeatureError(
            f"continual rescaling needs a positive peak rate on [{policy.a_e2}, {schedule.S}]"
        )
    bases["tail_energy"] = bases["tail_energy"] / h_tail ** 4
    if pre_S > 0.0:
        if pre_schedule is None:
            raise FeatureError("pre_S > 0 requires the pre-training schedule")
        bases["warmup_area"] = bases["warmup_area"] + pre_schedule.integral(0.0, pre_S, "eta")
    return features_from_bases(bases, schedule.S, config.N, powers=law.powers)


def _design_matrix(
    records,
    powers,
    policy_rule: str,
    normalizer: Normalizer,
):
    rows = [r for r in records if not r.diverged]
    if not rows:
        raise LawFitError("no fittable rows: every record is divergent")
    feats = []
    for r in rows:
        schedule = r.normalized_schedule(normalizer)
        feats.append(_featurize(powers, policy_rule, schedule, r.N).values)
    A = np.array(feats, dtype=float)
    y = np.log(np.array([r.final_loss for r in rows], dtype=float))
    return A, y


def fit(
    records,
    powers=None,
    policy_rule: str = "a1/a3/a2",
    include_escape: bool = True,
    normalizer: Normalizer = Normalizer(),
) -> FittedLaw:
    """Ordinary least squares of natural-log loss on the feature vector.

    Divergent records are excluded.  Columns are rescaled to unit RMS
    before the solve (undone afterwards) and one refinement pass is applied,
    so noiseless model-generated data refits to residuals near machine
    precision.  Raises :class:`LawFitError` when fewer than n_terms + 1
    non-divergent rows remain or the design matrix is rank deficient.
    """
    powers = DEFAULT_POWERS if powers is None else tuple(float(p) for p in powers)
    A_full, y = _design_matrix(records, powers, policy_rule, normalizer)
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
    f = features_for(law, config)
    log_loss = float(np.dot(law.c, f.values))
    return {"log_loss": log_loss, "loss": math.exp(log_loss)}


@dataclass(frozen=True)
class RankedConfig:
    index: int
    verdict: str  # "ok" | "diverge"
    R: float
    eta_L: float
    log_loss: float | None
    loss: float | None


def _gate(config: RunConfig, gate: DivergenceParams) -> CriterionResult:
    """Divergence check for a config, tolerating a zero-length warmup.

    The criterion itself requires a1 > 0; with no warmup the ratio blows
    up, so such configs diverge unless the peak rate already sits at or
    below the critical rate (zero numerator, R = 0 in the limit).
    """
    schedule = config.schedule
    h = schedule.eta_max
    a1 = schedule.markers[0]
    S = schedule.S
    threshold = critical_rate(config.N, S, gate)
    if h <= threshold:
        return CriterionResult(R=0.0, eta_L=min(h, threshold), verdict="stable")
    if a1 <= 0.0:
        return CriterionResult(R=math.inf, eta_L=threshold, verdict="diverge")
    return criterion_R(h, a1, config.N, S, gate)


def rank(
    law: FittedLaw,
    configs,
    gate: DivergenceParams = DEFAULT_PARAMS,
) -> list[RankedConfig]:
    """Order candidate configurations by predicted loss, gated for divergence.

    Configs with R > 1 come last with verdict "diverge" (input order);
    survivors sort ascending by predicted log loss, ties broken by smaller
    peak rate, then smaller warmup, then input order.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("rank needs at least one configuration")
    kept, gated = [], []
    for i, cfg in enumerate(configs):
        res = _gate(cfg, gate)
        if res.verdict == "diverge":
            gated.append(RankedConfig(i, "diverge", res.R, res.eta_L, None, None))
        else:
            pred = predict(law, cfg)
            kept.append(
                (
                    pred["log_loss"],
                    cfg.schedule.eta_max,
                    cfg.schedule.markers[0],
                    i,
                    RankedConfig(i, "ok", res.R, res.eta_L, pred["log_loss"], pred["loss"]),
                )
            )
    kept.sort(key=lambda t: t[:4])
    return [t[4] for t in kept] + gated


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


def unit_simple_law(b: float = 0.0) -> SimpleLaw:
    return SimpleLaw(b=b)


def simple_law_eval(
    law: SimpleLaw,
    schedule: Schedule,
    a: float | None = None,
    S: float | None = None,
) -> float:
    """Evaluate the five-term law on any schedule via exact integrals.

    ``a`` defaults to the schedule's warmup marker; a constant phase, if
    present, is folded into the cooldown integrals because everything past
    ``a`` counts as cooldown here.
    """
    if a is None:
        a = schedule.markers[0]
    if S is None:
        S = schedule.S
    iw = schedule.integral(0.0, a, "eta")
    it = schedule.integral(a, S, "eta")
    if iw <= 0 or it <= 0:
        raise ValueError(f"law needs positive area integrals, got warmup {iw}, tail {it}")
    ew = schedule.integral(0.0, a, "deta_sq")
    et = schedule.integral(a, S, "deta_sq")
    return (
        law.c1 * iw ** -law.alpha1
        + law.c2 * it ** -law.alpha2
        + law.c3_bias / S
        + law.b
        + law.c4 * ew ** law.alpha3
        + law.c5 * et ** law.alpha4
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
