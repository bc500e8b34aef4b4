"""Dual-threshold conformal prediction.

Calibrates two thresholds from held-out classifier outputs -- a conformal
quantile guaranteeing prediction-set coverage and a ROC-optimized
abstention cutoff -- then applies them to new samples and aggregates the
uncertainty/detection metric suite over condition x severity groups.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibratedThresholds,
    RocCurve,
    abstention_threshold,
    calibrate,
    calibration_scores,
    conformal_threshold,
    roc_points,
)
from .core import (
    DegenerateLabelsError,
    LabeledSample,
    as_logits,
    as_probabilities,
    nonconformity,
    softmax,
)
from .datagen import (
    GeneratorConfig,
    derive_seed,
    exchangeable_split,
    generate_dataset,
    signal_strength,
)
from .metrics import (
    EvaluationSummary,
    confidence,
    detection_auc,
    margin,
    normalized_entropy,
    summarize,
)
from .prediction import (
    Evaluations,
    abstain_decision,
    evaluate_samples,
    prediction_set,
)

__all__ = [
    "CalibratedThresholds",
    "DegenerateLabelsError",
    "EvaluationSummary",
    "Evaluations",
    "GeneratorConfig",
    "LabeledSample",
    "RocCurve",
    "__version__",
    "abstain_decision",
    "abstention_threshold",
    "as_logits",
    "as_probabilities",
    "calibrate",
    "calibration_scores",
    "confidence",
    "conformal_threshold",
    "derive_seed",
    "detection_auc",
    "evaluate_samples",
    "exchangeable_split",
    "generate_dataset",
    "margin",
    "nonconformity",
    "normalized_entropy",
    "prediction_set",
    "roc_points",
    "signal_strength",
    "softmax",
    "summarize",
]
