"""Validated probability-domain primitives shared by every other module.

Everything here is a pure function over immutable values: safe to call
from any number of threads and safe to pass between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Clamp floor applied to probabilities before taking logs. -log(0) is
# infinite; a finite floor keeps scores orderable and serializable.
PROB_EPSILON = 1e-12

# Ingested probability rows carry rounded decimals; their sum may miss 1
# by up to this much.
PROB_SUM_TOL = 1e-6

# Slack on the [0, 1] element bounds for the same reason.
_BOUND_SLACK = 1e-9

SEVERITY_MIN = 0
SEVERITY_MAX = 5


class DegenerateLabelsError(ValueError):
    """A binary criterion collapsed to a single class (TPR or FPR undefined)."""


def as_logits(values) -> np.ndarray:
    """Validate a raw logit vector: at least two finite entries.

    Returns a read-only float64 copy.
    """
    z = np.array(values, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"logits must be one-dimensional, got shape {z.shape}")
    if z.size < 2:
        raise ValueError(f"need at least 2 classes, got {z.size}")
    # A finite sum means every entry is finite; only a NaN, an infinity or
    # an overflowing sum pays for the elementwise check.
    if not math.isfinite(sum(z.tolist())) and not np.all(np.isfinite(z)):
        raise ValueError("logits contain NaN or infinite entries")
    z.flags.writeable = False
    return z


def as_probabilities(values) -> np.ndarray:
    """Validate a categorical distribution: entries in [0, 1], summing to 1.

    Entries may miss the bounds by rounding slack (they are clipped back);
    the sum must be within PROB_SUM_TOL of 1. Returns a read-only float64
    copy.
    """
    p = np.array(values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"probabilities must be one-dimensional, got shape {p.shape}")
    if p.size < 2:
        raise ValueError(f"need at least 2 classes, got {p.size}")
    # Accept a valid row from its extremes and its sum alone; only a
    # rejected row runs the checks below, in the order that picks its
    # message. A NaN fails a bound (min and max return one that comes
    # first) or makes the sum NaN; an infinity fails a bound. The sum is
    # numpy's pairwise one, as below, and runs only once every other
    # entry is bounded, so it cannot overflow or warn.
    entries = p.tolist()
    low, high = min(entries), max(entries)
    if not (
        low >= -_BOUND_SLACK
        and high <= 1.0 + _BOUND_SLACK
        and abs(float(np.add.reduce(p)) - 1.0) <= PROB_SUM_TOL
    ):
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities contain NaN or infinite entries")
        if np.any(p < -_BOUND_SLACK) or np.any(p > 1.0 + _BOUND_SLACK):
            raise ValueError("probabilities outside [0, 1]")
        total = float(np.add.reduce(p))
        raise ValueError(f"probabilities sum to {total:.9f}, expected 1 within {PROB_SUM_TOL}")
    if low < 0.0 or high > 1.0:
        p = np.clip(p, 0.0, 1.0)
    p.flags.writeable = False
    return p


def softmax(logits) -> np.ndarray:
    """Exponentiate and normalize a logit vector.

    Computed as exp(z - max(z)) / sum(exp(z - max(z))), which is invariant
    under an additive shift of all logits and cannot overflow for finite
    input of any magnitude.
    """
    z = as_logits(logits)
    e = np.exp(z - z.max())
    p = e / e.sum()
    p.flags.writeable = False
    return p


def nonconformity_scores(p: np.ndarray) -> np.ndarray:
    """Elementwise -log p of validated probabilities, each clamped to
    [PROB_EPSILON, 1] first so every score is finite and nonnegative
    (``0.0 - log`` scores p = 1 as +0.0, not -0.0)."""
    return 0.0 - np.log(np.clip(p, PROB_EPSILON, 1.0))


def normalized_entropies(p: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy of validated probabilities, scaled by log K.

    Uses the 0 * log 0 = 0 convention; the zero terms stay in the sum as
    exact zeros, so every row reduces in the same order whatever the batch.
    The result is clipped to [0, 1] against last-bit float excursions
    (``0.0 - sum`` gives a one-hot row +0.0; the clip would keep -0.0).
    """
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return np.clip((0.0 - plogp.sum(axis=-1)) / np.log(p.shape[-1]), 0.0, 1.0)


def top_two(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (largest, second-largest) entries of validated probabilities."""
    k = p.shape[-1]
    top = np.partition(p, k - 2, axis=-1)
    return top[..., k - 1], top[..., k - 2]


def nonconformity(probs, label: int) -> float:
    """Score how atypical a labeled example is: -log p(label); lower means
    the model agreed more with the label."""
    p = as_probabilities(probs)
    if not 0 <= label < p.size:
        raise ValueError(f"label {label} out of range for {p.size} classes")
    return float(nonconformity_scores(p)[label])


@dataclass(frozen=True, slots=True)
class LabeledSample:
    """One evaluation unit: a probability vector, its true label, and
    condition/severity tags describing where it came from.
    """

    sample_id: str
    label: int
    probs: np.ndarray
    condition: str = ""
    severity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "probs", as_probabilities(self.probs))
        if not 0 <= self.label < self.probs.size:
            raise ValueError(
                f"label {self.label} out of range for {self.probs.size} classes"
            )
        if not SEVERITY_MIN <= self.severity <= SEVERITY_MAX:
            raise ValueError(
                f"severity must be in [{SEVERITY_MIN}, {SEVERITY_MAX}], got {self.severity}"
            )

    @property
    def k_classes(self) -> int:
        return self.probs.size

    @classmethod
    def from_logits(cls, sample_id, label, logits, condition="", severity=0):
        """Build a sample from raw logits, normalizing through softmax."""
        return cls(sample_id, label, softmax(logits), condition, severity)


def stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """Stack validated samples into int64 labels and an (n, k) probability
    matrix, in input order.

    Every sample must have the class count of the first; a mixed batch is
    rejected naming the first sample that differs. The probabilities were
    validated when each sample was built, so none is revalidated here.
    """
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    try:
        probs = np.array([smp.probs for smp in samples])
    except ValueError:
        k = samples[0].k_classes
        bad = next(smp for smp in samples if smp.k_classes != k)
        raise ValueError(
            f"sample {bad.sample_id!r} has {bad.k_classes} classes, expected {k}"
        ) from None
    labels = np.fromiter((smp.label for smp in samples), dtype=np.int64, count=len(samples))
    return labels, probs
