"""Apply calibrated thresholds to new samples.

Set construction and the abstention verdict are independent decisions:
the set carries the coverage guarantee, the abstention flag vetoes the
top-1 decision. A record reports both so downstream consumers can choose
their own system-level semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import AbstentionGroundTruth, CalibratedThresholds
from .core import (
    LabeledSample,
    as_probabilities,
    nonconformity_scores,
    normalized_entropies,
    top_two,
)


@dataclass(frozen=True)
class PredictionSet:
    """Sorted class indices whose nonconformity clears the conformal bar."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, label: int) -> bool:
        return label in self.members


@dataclass(frozen=True)
class EvaluationRecord:
    """Everything observed about one sample under fixed thresholds."""

    sample_id: str
    label: int
    prediction_set: PredictionSet
    covered: bool
    abstained: bool
    should_abstain: bool
    top1: int
    score_top1: float
    entropy: float
    confidence: float
    margin: float
    condition: str
    severity: int


def prediction_set(probs, q_conf: float) -> PredictionSet:
    """All labels y with -log p(y) <= q_conf (boundary included).

    An infinite q_conf admits every label; a finite one may admit none,
    and the empty set is returned as-is.
    """
    members = np.flatnonzero(nonconformity_scores(as_probabilities(probs)) <= q_conf)
    return PredictionSet(members=tuple(int(m) for m in members))


def abstain_decision(probs, q_abs: float) -> bool:
    """True when the top-1 score strictly exceeds the abstention threshold."""
    p = as_probabilities(probs)
    return bool(nonconformity_scores(p)[p.argmax()] > q_abs)


def evaluate_sample(
    sample: LabeledSample,
    thresholds: CalibratedThresholds,
    ground_truth: AbstentionGroundTruth = AbstentionGroundTruth.TOP1_ERROR,
) -> EvaluationRecord:
    """Score one sample against fixed thresholds.

    ``ground_truth`` must match the rule used at calibration time for the
    resulting should-abstain flags (and hence detection AUC) to be
    consistent. Argmax ties break toward the lowest class index.
    """
    return evaluate_samples([sample], thresholds, ground_truth)[0]


def evaluate_samples(
    samples: Sequence[LabeledSample],
    thresholds: CalibratedThresholds,
    ground_truth: AbstentionGroundTruth = AbstentionGroundTruth.TOP1_ERROR,
) -> list[EvaluationRecord]:
    """Evaluate a batch, preserving input order.

    All samples flow through one vectorized kernel; sample probabilities
    were validated at construction, so no per-sample revalidation happens
    here.
    """
    if len(samples) == 0:
        return []
    for smp in samples:
        if smp.k_classes != thresholds.k_classes:
            raise ValueError(
                f"sample {smp.sample_id!r} has {smp.k_classes} classes, "
                f"thresholds were calibrated for {thresholds.k_classes}"
            )
    p_mat = np.array([smp.probs for smp in samples])
    n = len(p_mat)
    rows = np.arange(n)
    labels = np.fromiter((smp.label for smp in samples), dtype=np.int64, count=n)

    scores = nonconformity_scores(p_mat)
    in_set = scores <= thresholds.q_conf
    covered = in_set[rows, labels]
    top1 = p_mat.argmax(axis=1)
    score_top1 = scores[rows, top1]
    abstained = score_top1 > thresholds.q_abs
    if ground_truth is AbstentionGroundTruth.TOP1_ERROR:
        should = top1 != labels
    else:
        should = ~covered

    entropy = normalized_entropies(p_mat)
    conf, second = top_two(p_mat)
    marg = conf - second

    return [
        EvaluationRecord(
            sample_id=smp.sample_id,
            label=smp.label,
            prediction_set=PredictionSet(
                members=tuple(int(m) for m in np.flatnonzero(in_set[i]))
            ),
            covered=bool(covered[i]),
            abstained=bool(abstained[i]),
            should_abstain=bool(should[i]),
            top1=int(top1[i]),
            score_top1=float(score_top1[i]),
            entropy=float(entropy[i]),
            confidence=float(conf[i]),
            margin=float(marg[i]),
            condition=smp.condition,
            severity=smp.severity,
        )
        for i, smp in enumerate(samples)
    ]
