"""Uncertainty metrics: per-sample measures and grouped aggregates.

Per-sample functions take a probability vector; aggregate functions take
evaluation records (see :mod:`dualthresh.prediction`) and reduce them with
numpy means, whose pairwise summation keeps results independent of how a
batch was partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .calibration import RocCurve, roc_points
from .core import as_probabilities, normalized_entropies, top_two

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .prediction import EvaluationRecord


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


def _require_records(records: Sequence["EvaluationRecord"]):
    if len(records) == 0:
        raise ValueError("records must be non-empty")


def empirical_coverage(records: Sequence["EvaluationRecord"]) -> float:
    """Fraction of records whose true label fell inside the prediction set."""
    _require_records(records)
    return float(np.mean([r.covered for r in records]))


def average_set_size(records: Sequence["EvaluationRecord"]) -> float:
    _require_records(records)
    return float(np.mean([r.prediction_set.size for r in records]))


def abstention_rate(records: Sequence["EvaluationRecord"]) -> float:
    """Fraction of records on which the system declined to predict."""
    _require_records(records)
    return float(np.mean([r.abstained for r in records]))


def detection_auc(records: Sequence["EvaluationRecord"]) -> tuple[RocCurve, float]:
    """ROC of the top-1 score against the should-abstain ground truth.

    Raises DegenerateLabelsError when the records contain only one flag
    class.
    """
    _require_records(records)
    scores = [r.score_top1 for r in records]
    flags = [r.should_abstain for r in records]
    curve = roc_points(scores, flags)
    return curve, curve.auc


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


def summarize(records: Sequence["EvaluationRecord"]) -> list[EvaluationSummary]:
    """One summary per (condition, severity) group, sorted by that key.

    Group membership depends only on record tags, so permuting the input
    yields identical output.
    """
    _require_records(records)
    groups: dict[tuple[str, int], list] = {}
    for r in records:
        groups.setdefault((r.condition, r.severity), []).append(r)

    out = []
    for (condition, severity) in sorted(groups):
        grp = groups[(condition, severity)]
        flags = {r.should_abstain for r in grp}
        auc = detection_auc(grp)[1] if len(flags) == 2 else None
        out.append(
            EvaluationSummary(
                condition=condition,
                severity=severity,
                n=len(grp),
                coverage=empirical_coverage(grp),
                avg_set_size=average_set_size(grp),
                avg_entropy=float(np.mean([r.entropy for r in grp])),
                avg_confidence=float(np.mean([r.confidence for r in grp])),
                avg_margin=float(np.mean([r.margin for r in grp])),
                abstention_rate=abstention_rate(grp),
                auc=auc,
            )
        )
    return out
