"""Threshold calibration from held-out classifier outputs.

Two thresholds come out of one calibration pass:

* a conformal threshold ``q_conf`` -- the finite-sample quantile of the
  nonconformity scores that makes prediction sets cover the true label
  with probability at least ``1 - alpha``;
* an abstention threshold ``q_abs`` -- the score cutoff that maximizes
  TPR - FPR for detecting top-1 errors (``argmax p != label``, argmax
  ties to the lowest class index), the samples to abstain on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DegenerateLabelsError, SampleBatch, block_rows, nonconformity_scores

# The thresholds artifact's format, which also names its scores: q_conf
# is compared with the true-label score -log clip(p, 1e-12, 1), as
# core.nonconformity_scores computes it; q_abs is placed by the Youden ROC
# of that same score and compared with the top-1 score. Any change to
# which score a threshold is placed on or compared with (its clamp floor
# included) bumps it, so a file is never applied under another rule.
THRESHOLDS_FORMAT_VERSION = 2


@dataclass(frozen=True)
class RocCurve:
    """ROC operating points over descending candidate thresholds.

    ``taus`` starts at +inf (nothing flagged) and ends at -inf (everything
    flagged); ``fpr`` and ``tpr`` are nondecreasing along it. Raw integer
    counts are kept so downstream threshold selection can compare Youden's
    J exactly, free of float-division dust.
    """

    taus: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float
    tp_counts: np.ndarray = field(repr=False)
    fp_counts: np.ndarray = field(repr=False)
    n_pos: int = field(repr=False)
    n_neg: int = field(repr=False)

    def __len__(self) -> int:
        return self.taus.size


def check_alpha(alpha: float) -> None:
    """Raise a ValueError unless alpha is in (0, 1); no NaN is, a Decimal
    NaN (quiet or signalling) included."""
    # Ordering a Decimal NaN signals InvalidOperation, so its is_nan()
    # answers first.
    if (hasattr(alpha, "is_nan") and alpha.is_nan()) or not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class CalibratedThresholds:
    """The calibrated pair plus provenance.

    ``q_conf`` may be ``math.inf`` when the requested significance level is
    unattainable at the calibration size (rank exceeds n); prediction sets
    then contain every label and coverage holds vacuously.
    """

    q_conf: float
    q_abs: float
    alpha: float
    n_calibration: int
    youden_j: float
    k_classes: int

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.n_calibration < 1:
            raise ValueError(f"n_calibration must be >= 1, got {self.n_calibration}")
        if math.isnan(self.q_conf) or self.q_conf < 0.0:
            raise ValueError(f"q_conf must be >= 0 or inf, got {self.q_conf}")
        if math.isnan(self.q_abs):
            raise ValueError("q_abs must not be NaN")
        if not -1.0 <= self.youden_j <= 1.0:
            raise ValueError(f"youden_j must be in [-1, 1], got {self.youden_j}")
        if self.k_classes < 2:
            raise ValueError(f"k_classes must be >= 2, got {self.k_classes}")


def _check_scores(s: np.ndarray) -> None:
    """Refuse empty scores, then NaN scores."""
    if s.size == 0:
        raise ValueError("scores must be non-empty")
    if np.isnan(s).any():
        raise ValueError("scores contain NaN")


def conformal_threshold(scores: Sequence[float], alpha: float) -> float:
    """Finite-sample conformal quantile of calibration nonconformity scores.

    Returns the k-th smallest score with k = ceil((n+1)(1-alpha)), keeping
    duplicates in the order statistic. When k exceeds n (alpha below
    1/(n+1)) the quantile does not exist among the scores and +inf is
    returned; coverage then holds vacuously.

    The rank is computed in integers from the exact ratio num/den of alpha
    (any real with ``as_integer_ratio``: float, numpy float32 or float64,
    Fraction, Decimal), as ceil((n+1)(den-num)/den), so the float
    representation of alpha can never shift the ceiling across an integer.
    """
    check_alpha(alpha)
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be one-dimensional, got shape {s.shape}")
    _check_scores(s)
    n = s.size
    num, den = alpha.as_integer_ratio()
    rank = -(-(n + 1) * (den - num) // den)
    if rank > n:
        return math.inf
    return float(np.sort(s)[rank - 1])


def roc_points(scores: Sequence[float], should_abstain: Sequence[bool]) -> RocCurve:
    """Build the abstention ROC curve over all candidate thresholds.

    Candidates are the +inf sentinel, each unique score descending, and
    the -inf sentinel. At each candidate tau a sample is flagged when its
    score is strictly greater than tau; TPR is the flagged fraction of
    should-abstain samples and FPR the flagged fraction of the rest. The
    AUC is the trapezoidal integral of the resulting polyline, which with
    tied scores grouped into single steps equals the Mann-Whitney
    statistic with half credit for ties.
    """
    s = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(should_abstain, dtype=bool)
    if s.ndim != 1 or flags.ndim != 1 or s.size != flags.size:
        raise ValueError("scores and should_abstain must be equal-length 1-D sequences")
    _check_scores(s)
    n_pos = int(flags.sum())
    n_neg = int(flags.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            "should_abstain flags are all "
            f"{'true' if n_neg == 0 else 'false'}; TPR or FPR is undefined"
        )

    # Sort descending; at tau equal to the i-th unique value, the flagged
    # set is exactly the samples sorted strictly before its first
    # occurrence, so cumulative positive counts give TP at each step.
    order = np.argsort(-s, kind="stable")
    s_desc = s[order]
    pos_desc = flags[order].astype(np.int64)
    cum_pos = np.concatenate([[0], np.cumsum(pos_desc)])

    # first_idx[j]: where the j-th run of equal sorted scores starts; the
    # samples before it are the ones exceeding its value.
    first_idx = np.flatnonzero(np.r_[True, s_desc[1:] != s_desc[:-1]])

    tp = np.concatenate([[0], cum_pos[first_idx], [n_pos]])
    counted = np.concatenate([[0], first_idx, [s.size]])
    fp = counted - tp
    taus = np.concatenate([[math.inf], s_desc[first_idx], [-math.inf]])

    tpr = tp / n_pos
    fpr = fp / n_neg
    auc = float(np.trapezoid(tpr, fpr))

    for arr in (taus, fpr, tpr, tp, fp):
        arr.flags.writeable = False
    return RocCurve(
        taus=taus,
        fpr=fpr,
        tpr=tpr,
        auc=auc,
        tp_counts=tp,
        fp_counts=fp,
        n_pos=n_pos,
        n_neg=n_neg,
    )


def abstention_threshold(roc: RocCurve) -> tuple[float, float]:
    """Pick the curve threshold maximizing Youden's J = TPR - FPR.

    Ties are broken toward the smallest tau, i.e. the most abstention; a
    missed abstention is treated as costlier than an unnecessary one. The
    comparison is done on the integer counts (J ranks identically to
    TP * n_neg - FP * n_pos), so rationally equal J values tie exactly.

    Returns (q_abs, youden_j).
    """
    j_scaled = roc.tp_counts * roc.n_neg - roc.fp_counts * roc.n_pos
    best = int(np.flatnonzero(j_scaled == j_scaled.max())[-1])  # taus descend
    q_abs = float(roc.taus[best])
    youden_j = float(j_scaled[best]) / (roc.n_pos * roc.n_neg)
    return q_abs, youden_j


def calibrate(samples: SampleBatch, alpha: float) -> CalibratedThresholds:
    """Run the full calibration pass over a held-out labeled set.

    Scores every sample against its true label, takes the conformal
    quantile at level alpha, flags the top-1 errors, and places the
    abstention threshold at the Youden optimum of the score ROC. The
    argmax runs over blocks of ``core.block_rows`` rows, since numpy's
    argmax over a read-only matrix copies it whole. The quantile is ranked
    at alpha's exact value, and ``float(alpha)`` is recorded, so a numpy
    float32 alpha still writes as a JSON number.
    """
    labels, probs = samples.label, samples.probs
    n, k = probs.shape
    scores = nonconformity_scores(probs[np.arange(n), labels])
    q_conf = conformal_threshold(scores, alpha)
    top1 = np.empty(n, dtype=np.intp)
    step = block_rows(k)
    for start in range(0, n, step):
        top1[start:start + step] = probs[start:start + step].argmax(axis=1)
    flags = top1 != labels
    try:
        roc = roc_points(scores, flags)
    except DegenerateLabelsError as exc:
        detail = (
            "every calibration sample is unflagged"
            if not flags.any()
            else "every calibration sample is flagged"
        )
        raise DegenerateLabelsError(
            f"cannot place an abstention threshold: {detail} ({exc}); "
            "provide calibration data containing both correct and incorrect "
            "predictions"
        ) from exc

    q_abs, youden_j = abstention_threshold(roc)
    return CalibratedThresholds(
        q_conf=q_conf,
        q_abs=q_abs,
        alpha=float(alpha),
        n_calibration=n,
        youden_j=youden_j,
        k_classes=k,
    )
