"""optlaws: learning-rate schedule functionals, loss-prediction laws, and SDE checks."""

from .divergence import CriterionResult, DivergenceParams, criterion_R, critical_rate
from .features import (
    DEFAULT_POWERS,
    TERM_NAMES,
    FeatureError,
    FeatureVector,
    Normalizer,
    compute_features,
)
from .law import (
    DIVERGED_LOSS,
    ConfigBatch,
    FittedLaw,
    LawFitError,
    RunConfig,
    RunRecord,
    RunTable,
    SimpleLaw,
    continual_features,
    fit,
    predict,
    prop1_gap,
    rank,
    reference_law,
    simple_law_eval,
)
from .schedule import (
    Schedule,
    ScheduleError,
    Segment,
    build_general_schedule,
    warmup_cosine_schedule,
    warmup_const_cooldown_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigBatch",
    "CriterionResult",
    "DIVERGED_LOSS",
    "DEFAULT_POWERS",
    "DivergenceParams",
    "FeatureError",
    "FeatureVector",
    "FittedLaw",
    "LawFitError",
    "Normalizer",
    "RunConfig",
    "RunRecord",
    "RunTable",
    "Schedule",
    "ScheduleError",
    "Segment",
    "SimpleLaw",
    "TERM_NAMES",
    "build_general_schedule",
    "compute_features",
    "continual_features",
    "criterion_R",
    "critical_rate",
    "fit",
    "predict",
    "prop1_gap",
    "rank",
    "reference_law",
    "simple_law_eval",
    "warmup_cosine_schedule",
    "warmup_const_cooldown_schedule",
]
