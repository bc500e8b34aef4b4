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
    conformal_threshold,
    roc_points,
)
from .core import (
    DegenerateLabelsError,
    SampleBatch,
    as_probabilities,
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
    detection_auc,
    summarize,
)
from .prediction import (
    Evaluations,
    evaluate_samples,
)

__all__ = [
    "CalibratedThresholds",
    "DegenerateLabelsError",
    "EvaluationSummary",
    "Evaluations",
    "GeneratorConfig",
    "RocCurve",
    "SampleBatch",
    "__version__",
    "abstention_threshold",
    "as_probabilities",
    "calibrate",
    "conformal_threshold",
    "derive_seed",
    "detection_auc",
    "evaluate_samples",
    "exchangeable_split",
    "generate_dataset",
    "roc_points",
    "signal_strength",
    "softmax",
    "summarize",
]
