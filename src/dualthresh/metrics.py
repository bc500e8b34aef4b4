"""Uncertainty metrics of one (condition, severity) group.

The per-sample measures are columns of an
:class:`~dualthresh.prediction.Evaluations` batch, which is one group; the
functions here take that batch and reduce its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .calibration import RocCurve, roc_points

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .prediction import Evaluations


def detection_auc(ev: "Evaluations") -> RocCurve:
    """ROC of the top-1 score against the should-abstain flags; its
    ``auc`` is the detection AUC.

    Raises DegenerateLabelsError when the batch contains only one flag
    class.
    """
    return roc_points(ev.score_top1, ev.should_abstain)


@dataclass(frozen=True)
class EvaluationSummary:
    """Aggregate metrics for one (condition, severity) group.

    ``auc`` is None when the group lacks one of the should-abstain flag
    classes; exporting it as an explicit absence beats writing a fake 0.
    """

    condition: str
    severity: int
    n: int
    coverage: float
    avg_set_size: float
    avg_entropy: float
    avg_confidence: float
    avg_margin: float
    abstention_rate: float
    auc: Optional[float]


def summarize(ev: "Evaluations") -> EvaluationSummary:
    """The batch's one summary: the mean of each per-sample measure over
    every row, and the detection AUC when both flag classes occur."""
    n = len(ev)
    if n == 0:
        raise ValueError("evaluations must be non-empty")
    n_flagged = int(ev.should_abstain.sum())
    return EvaluationSummary(
        condition=ev.condition,
        severity=ev.severity,
        n=n,
        coverage=float(np.mean(ev.covered)),
        avg_set_size=float(np.mean(ev.set_size)),
        avg_entropy=float(np.mean(ev.entropy)),
        avg_confidence=float(np.mean(ev.confidence)),
        avg_margin=float(np.mean(ev.margin)),
        abstention_rate=float(np.mean(ev.abstained)),
        auc=detection_auc(ev).auc if 0 < n_flagged < n else None,
    )
