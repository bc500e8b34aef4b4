"""Apply calibrated thresholds to new samples.

Set construction and the abstention verdict are independent decisions:
the set carries the coverage guarantee, the abstention flag vetoes the
top-1 decision. An evaluation reports both so downstream consumers can
choose their own system-level semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .calibration import CalibratedThresholds
from .core import (
    LabeledSample,
    as_probabilities,
    nonconformity_scores,
    normalized_entropies,
    stack_samples,
    top_two,
)


@dataclass(frozen=True, eq=False)
class Evaluations:
    """Everything observed about a batch of samples under fixed thresholds.

    One array per field, row i describing the i-th input sample: the tags
    ``sample_id``, ``label``, ``condition`` and ``severity``; the (n, k)
    bool ``in_set`` membership matrix of the prediction sets; and the
    per-sample verdicts and measures.
    """

    sample_id: np.ndarray
    label: np.ndarray
    condition: np.ndarray
    severity: np.ndarray
    in_set: np.ndarray
    covered: np.ndarray
    abstained: np.ndarray
    should_abstain: np.ndarray
    top1: np.ndarray
    score_top1: np.ndarray
    entropy: np.ndarray
    confidence: np.ndarray
    margin: np.ndarray

    def __len__(self) -> int:
        return self.label.size

    @property
    def set_size(self) -> np.ndarray:
        return self.in_set.sum(axis=1)

    def take(self, index) -> "Evaluations":
        """The rows selected by an index array or a bool mask, in that order."""
        return Evaluations(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


def prediction_set(probs, q_conf: float) -> tuple[int, ...]:
    """Sorted labels y with -log p(y) <= q_conf (boundary included).

    An infinite q_conf admits every label; a finite one may admit none,
    and the empty tuple is returned as-is.
    """
    members = np.flatnonzero(nonconformity_scores(as_probabilities(probs)) <= q_conf)
    return tuple(int(m) for m in members)


def abstain_decision(probs, q_abs: float) -> bool:
    """True when the top-1 score strictly exceeds the abstention threshold."""
    p = as_probabilities(probs)
    return bool(nonconformity_scores(p)[p.argmax()] > q_abs)


def evaluate_samples(
    samples: Sequence[LabeledSample], thresholds: CalibratedThresholds
) -> Evaluations:
    """Evaluate a non-empty batch in one vectorized pass, preserving input
    order.

    ``should_abstain`` flags the top-1 errors, the rule ``calibrate``
    placed ``q_abs`` by; argmax ties break toward the lowest class index.
    """
    labels, p_mat = stack_samples(samples)
    if p_mat.shape[1] != thresholds.k_classes:
        raise ValueError(
            f"sample {samples[0].sample_id!r} has {p_mat.shape[1]} classes, "
            f"thresholds were calibrated for {thresholds.k_classes}"
        )
    rows = np.arange(labels.size)

    scores = nonconformity_scores(p_mat)
    in_set = scores <= thresholds.q_conf
    covered = in_set[rows, labels]
    top1 = p_mat.argmax(axis=1)
    score_top1 = scores[rows, top1]
    conf, second = top_two(p_mat)

    return Evaluations(
        sample_id=np.array([smp.sample_id for smp in samples], dtype=object),
        label=labels,
        condition=np.array([smp.condition for smp in samples], dtype=object),
        severity=np.fromiter((smp.severity for smp in samples), dtype=np.int64, count=rows.size),
        in_set=in_set,
        covered=covered,
        abstained=score_top1 > thresholds.q_abs,
        should_abstain=top1 != labels,
        top1=top1,
        score_top1=score_top1,
        entropy=normalized_entropies(p_mat),
        confidence=conf,
        margin=conf - second,
    )
