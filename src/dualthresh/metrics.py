"""Uncertainty metrics: per-sample measures and grouped aggregates.

Per-sample functions take a probability vector; aggregate functions take
an :class:`~dualthresh.prediction.Evaluations` batch and reduce its
columns with numpy means, whose pairwise summation keeps results
independent of how a batch was partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .calibration import RocCurve, roc_points
from .core import as_probabilities, normalized_entropies, top_two

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .prediction import Evaluations


def normalized_entropy(probs) -> float:
    """Shannon entropy scaled into [0, 1] by log K.

    Uses the 0 * log 0 = 0 convention, so one-hot vectors score exactly 0
    and the uniform distribution exactly 1 (the result is clipped against
    last-bit float excursions outside [0, 1]).
    """
    return float(normalized_entropies(as_probabilities(probs)))


def confidence(probs) -> float:
    """Top-1 probability."""
    return float(top_two(as_probabilities(probs))[0])


def margin(probs) -> float:
    """Gap between the largest and second-largest probabilities."""
    first, second = top_two(as_probabilities(probs))
    return float(first - second)


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


def summarize(ev: "Evaluations") -> list[EvaluationSummary]:
    """One summary per (condition, severity) group, sorted by that key.

    Group membership depends only on the tag columns, so permuting the
    rows yields identical output.
    """
    if len(ev) == 0:
        raise ValueError("evaluations must be non-empty")
    out = []
    for condition, severity in sorted(set(zip(ev.condition.tolist(), ev.severity.tolist()))):
        grp = ev.take((ev.condition == condition) & (ev.severity == severity))
        n_flagged = int(grp.should_abstain.sum())
        out.append(
            EvaluationSummary(
                condition=condition,
                severity=severity,
                n=len(grp),
                coverage=float(np.mean(grp.covered)),
                avg_set_size=float(np.mean(grp.set_size)),
                avg_entropy=float(np.mean(grp.entropy)),
                avg_confidence=float(np.mean(grp.confidence)),
                avg_margin=float(np.mean(grp.margin)),
                abstention_rate=float(np.mean(grp.abstained)),
                auc=detection_auc(grp).auc if 0 < n_flagged < len(grp) else None,
            )
        )
    return out
