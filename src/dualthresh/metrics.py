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
    rows yields identical output. Each group copies only the columns it
    reduces, one at a time.
    """
    if len(ev) == 0:
        raise ValueError("evaluations must be non-empty")
    out = []
    for condition, severity in sorted(set(zip(ev.condition.tolist(), ev.severity.tolist()))):
        mask = (ev.condition == condition) & (ev.severity == severity)
        should_abstain = ev.should_abstain[mask]
        n = should_abstain.size
        n_flagged = int(should_abstain.sum())
        out.append(
            EvaluationSummary(
                condition=condition,
                severity=severity,
                n=n,
                coverage=float(np.mean(ev.covered[mask])),
                avg_set_size=float(np.mean(ev.in_set[mask].sum(axis=1))),
                avg_entropy=float(np.mean(ev.entropy[mask])),
                avg_confidence=float(np.mean(ev.confidence[mask])),
                avg_margin=float(np.mean(ev.margin[mask])),
                abstention_rate=float(np.mean(ev.abstained[mask])),
                auc=(
                    roc_points(ev.score_top1[mask], should_abstain).auc
                    if 0 < n_flagged < n
                    else None
                ),
            )
        )
    return out
