"""Apply calibrated thresholds to a batch of new samples.

``evaluate_samples`` gives each row the size and coverage of its
prediction set, its abstention verdict and its per-sample measures. The
set carries the coverage guarantee, the abstention flag vetoes the top-1
decision; the two are independent, and an evaluation reports both so
downstream consumers can choose their own system-level semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibratedThresholds
from .core import SampleBatch, block_rows, nonconformity_scores, normalized_entropies, top_two


@dataclass(frozen=True, eq=False)
class Evaluations:
    """Everything observed about a batch of samples under fixed thresholds.

    The batch's ``condition`` and ``severity`` tags, then one column per
    field, row i describing the i-th input sample: its ``sample_id`` and
    ``label``, the size of its prediction set, and the per-sample verdicts
    and measures.
    """

    condition: str
    severity: int
    sample_id: np.ndarray
    label: np.ndarray
    set_size: np.ndarray
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


def evaluate_samples(samples: SampleBatch, thresholds: CalibratedThresholds) -> Evaluations:
    """Evaluate a batch with vectorized kernels, preserving its row order;
    the tags are the batch's own.

    ``should_abstain`` flags the top-1 errors, the rule ``calibrate``
    placed ``q_abs`` by; argmax ties break toward the lowest class index.
    The kernels run over blocks of ``core.block_rows`` rows; each works
    row by row, so the blocking changes no output bit.
    """
    labels, p_mat = samples.label, samples.probs
    n, k = p_mat.shape
    if k != thresholds.k_classes:
        raise ValueError(
            f"sample {samples.sample_id[0]!r} has {k} classes, "
            f"thresholds were calibrated for {thresholds.k_classes}"
        )

    set_size, top1 = (np.empty(n, dtype=np.intp) for _ in range(2))
    covered = np.empty(n, dtype=bool)
    score_top1, entropy, conf, second = (np.empty(n) for _ in range(4))
    step = block_rows(k)
    for start in range(0, n, step):
        block = slice(start, start + step)
        p = p_mat[block]
        scores = nonconformity_scores(p)
        in_set = scores <= thresholds.q_conf
        set_size[block] = in_set.sum(axis=1)
        rows = np.arange(len(p))
        covered[block] = in_set[rows, labels[block]]
        top1[block] = top = p.argmax(axis=1)
        score_top1[block] = scores[rows, top]
        entropy[block] = normalized_entropies(p)
        conf[block], second[block] = top_two(p)

    return Evaluations(
        condition=samples.condition,
        severity=samples.severity,
        sample_id=samples.sample_id,
        label=labels,
        set_size=set_size,
        covered=covered,
        abstained=score_top1 > thresholds.q_abs,
        should_abstain=top1 != labels,
        top1=top1,
        score_top1=score_top1,
        entropy=entropy,
        confidence=conf,
        margin=conf - second,
    )
