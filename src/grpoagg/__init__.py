"""Aggregation rules for group-relative RL objectives.

Library surface: rollout groups and advantage normalization (``groups``),
the clipped token term and the four aggregation objectives with analytic
gradients (``aggregate``), sign-split bias diagnostics (``decompose``), a
deterministic tabular-policy training simulator (``sim``), JSONL/CSV
interchange (``rollout_io``), and the seeded identity suite (``verify``).
"""

from .aggregate import (
    RULES,
    AggregationResult,
    BoundaryProximityError,
    ClipConfig,
    MissingRatiosError,
    gradient_check,
    objective_balanced,
    objective_balanced_gen,
    objective_seq,
    objective_token,
    phi,
)
from .decompose import (
    DecompositionReport,
    LengthStats,
    NonBinaryRewardError,
    RegimeThresholds,
    ba_weight_identity,
    decompose,
    length_stats,
    regime_report,
)
from .groups import (
    AdvantageSet,
    DegenerateGroupError,
    Response,
    RolloutGroup,
    binary_closed_form,
    normalize_advantages,
)
from .rollout_io import (
    METRIC_FIELDS,
    MalformedLineError,
    MetricRecord,
    RecordValidationError,
    RolloutLogError,
    read_metrics,
    read_rollouts,
    write_metrics,
    write_rollouts,
)
from .sim import (
    COUNT_SYMBOL,
    EOS_TOKEN,
    PolicyTable,
    SimulationError,
    TaskSpec,
    TrainConfig,
    logit_gradient_check,
    run_training,
    sample_group,
    train_step,
    verify_reward,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "RULES",
    "AggregationResult",
    "BoundaryProximityError",
    "ClipConfig",
    "MissingRatiosError",
    "gradient_check",
    "objective_balanced",
    "objective_balanced_gen",
    "objective_seq",
    "objective_token",
    "phi",
    "DecompositionReport",
    "LengthStats",
    "NonBinaryRewardError",
    "RegimeThresholds",
    "ba_weight_identity",
    "decompose",
    "length_stats",
    "regime_report",
    "AdvantageSet",
    "DegenerateGroupError",
    "Response",
    "RolloutGroup",
    "binary_closed_form",
    "normalize_advantages",
    "METRIC_FIELDS",
    "MalformedLineError",
    "MetricRecord",
    "RecordValidationError",
    "RolloutLogError",
    "read_metrics",
    "read_rollouts",
    "write_metrics",
    "write_rollouts",
    "COUNT_SYMBOL",
    "EOS_TOKEN",
    "PolicyTable",
    "SimulationError",
    "TaskSpec",
    "TrainConfig",
    "logit_gradient_check",
    "run_training",
    "sample_group",
    "train_step",
    "verify_reward",
    "run_suite",
    "__version__",
]
