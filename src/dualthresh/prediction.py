"""Apply calibrated thresholds to a batch of new samples.

``evaluate_samples`` gives each row its prediction set, its abstention
verdict and its per-sample measures. The set carries the coverage
guarantee, the abstention flag vetoes the top-1 decision; the two are
independent, and an evaluation reports both so downstream consumers can
choose their own system-level semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .calibration import CalibratedThresholds
from .core import SampleBatch, nonconformity_scores, normalized_entropies, top_two


# Cells per block of evaluate_samples' kernels: their (rows, k)
# temporaries stay near 0.5 MiB each whatever the batch size.
BLOCK_CELLS = 65536


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


def evaluate_samples(samples: SampleBatch, thresholds: CalibratedThresholds) -> Evaluations:
    """Evaluate a batch with vectorized kernels, preserving its row order;
    the tag columns are the batch's own.

    ``should_abstain`` flags the top-1 errors, the rule ``calibrate``
    placed ``q_abs`` by; argmax ties break toward the lowest class index.
    The kernels run over blocks of about BLOCK_CELLS cells; each works row
    by row, so the blocking changes no output bit.
    """
    labels, p_mat = samples.label, samples.probs
    n, k = p_mat.shape
    if k != thresholds.k_classes:
        raise ValueError(
            f"sample {samples.sample_id[0]!r} has {k} classes, "
            f"thresholds were calibrated for {thresholds.k_classes}"
        )

    in_set = np.empty((n, k), dtype=bool)
    top1 = np.empty(n, dtype=np.intp)
    score_top1, entropy, conf, second = (np.empty(n) for _ in range(4))
    step = max(1, BLOCK_CELLS // k)
    for start in range(0, n, step):
        block = slice(start, start + step)
        p = p_mat[block]
        scores = nonconformity_scores(p)
        in_set[block] = scores <= thresholds.q_conf
        top1[block] = top = p.argmax(axis=1)
        score_top1[block] = scores[np.arange(top.size), top]
        entropy[block] = normalized_entropies(p)
        conf[block], second[block] = top_two(p)

    return Evaluations(
        sample_id=samples.sample_id,
        label=labels,
        condition=samples.condition,
        severity=samples.severity,
        in_set=in_set,
        covered=in_set[np.arange(n), labels],
        abstained=score_top1 > thresholds.q_abs,
        should_abstain=top1 != labels,
        top1=top1,
        score_top1=score_top1,
        entropy=entropy,
        confidence=conf,
        margin=conf - second,
    )
