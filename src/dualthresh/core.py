"""Validated probability-domain primitives shared by every other module.

Everything here is a pure function over immutable values: safe to call
from any number of threads and safe to pass between them.
"""

from __future__ import annotations

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

# Per entry, more than twice the most by which two float64 summation
# orders of a row can differ when every entry is within the bounds and
# the sum is near 1: each order is within (k - 1) * 2**-53 * sum|p| of
# the exact sum, and sum|p| is below 2 for any k under 5e8.
_SUM_ORDER_SLACK = 2.0**-50

SEVERITY_MIN = 0
SEVERITY_MAX = 5

# Cells per block of every loop over a whole batch or file, read through
# block_rows: each temporary stays near 0.5 MiB whatever the batch size.
BLOCK_CELLS = 65536


class DegenerateLabelsError(ValueError):
    """A binary criterion collapsed to a single class (TPR or FPR undefined)."""


def block_rows(width: int) -> int:
    """Rows in a block of about BLOCK_CELLS cells of ``width``, at least one."""
    return max(1, BLOCK_CELLS // width)


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
    # first) or makes the sum NaN; an infinity fails a bound. The sums run
    # only once every entry is bounded, so they cannot overflow or warn.
    # The tolerance applies to numpy's pairwise sum, as below; Python's
    # left-to-right sum decides first when it is far enough inside it
    # that no summation order could land outside.
    entries = p.tolist()
    low, high = min(entries), max(entries)
    bounded = low >= -_BOUND_SLACK and high <= 1.0 + _BOUND_SLACK
    if not (
        bounded
        and (
            abs(sum(entries) - 1.0) <= PROB_SUM_TOL - p.size * _SUM_ORDER_SLACK
            or abs(float(np.add.reduce(p)) - 1.0) <= PROB_SUM_TOL
        )
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
    """Exponentiate and normalize a logit vector of at least two finite
    entries; returns a read-only float64 array.

    Computed as exp(z - max(z)) / sum(exp(z - max(z))), which is invariant
    under an additive shift of all logits and cannot overflow for finite
    input of any magnitude.
    """
    z = np.array(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"logits must be one-dimensional, got shape {z.shape}")
    if z.size < 2:
        raise ValueError(f"need at least 2 classes, got {z.size}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain NaN or infinite entries")
    p = softmax_rows(z)
    p.flags.writeable = False
    return p


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """The softmax kernel, over the last axis of unvalidated logits, as a
    new array: exp(z - max) / sum. A shift that overflows to -inf gives a
    zero probability, without a numpy warning."""
    with np.errstate(over="ignore"):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


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


def check_tags(condition, severity) -> tuple[str, int]:
    """Return a batch's tags as a ``str`` condition without a carriage
    return, which the LF-terminated exports would leave unquoted, and an
    ``int`` severity in [SEVERITY_MIN, SEVERITY_MAX], or raise ValueError
    naming the field."""
    if not isinstance(condition, str):
        raise ValueError(f"condition must be a str, got {type(condition).__name__}")
    if "\r" in condition:
        raise ValueError(f"condition must not hold a carriage return, got {condition!r}")
    if isinstance(severity, bool) or not isinstance(severity, (int, np.integer)):
        raise ValueError(f"severity must be an integer, got {type(severity).__name__}")
    if not SEVERITY_MIN <= severity <= SEVERITY_MAX:
        raise ValueError(f"severity must be in [{SEVERITY_MIN}, {SEVERITY_MAX}], got {severity}")
    # A plain int, since json rejects numpy integers.
    return str(condition), int(severity)


def check_sample_id(sample_id, index: int, first: dict[str, int], where: str) -> None:
    """Refuse a sample id that is not a ``str``, holds a carriage return
    (which the LF-terminated exports would leave unquoted) or is already a
    key of ``first``, the ids seen so far, each with its index; a new id is
    entered there at ``index``. ``where`` names what an index counts, "in
    row" of a batch or "on line" of a file, in the duplicate's message."""
    if not isinstance(sample_id, str):
        raise ValueError(f"sample_id must be a str, got {type(sample_id).__name__}")
    if "\r" in sample_id:
        raise ValueError(f"sample_id {sample_id!r} holds a carriage return")
    if first.setdefault(sample_id, index) != index:
        raise ValueError(f"duplicate sample_id {sample_id!r} (first {where} {first[sample_id]})")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """One file's evaluation units as columns, row i describing the i-th
    sample: its ``sample_id``, its int64 true ``label`` and its
    probability row in the ``(n, k)`` float64 matrix ``probs``. The
    ``condition`` and ``severity`` tags say where the whole batch came
    from.

    Building a batch validates it: the tags through ``check_tags``, at
    least one row, each probability row through ``as_probabilities``
    (entries within the rounding slack are clipped), labels of an integer
    dtype, each in [0, k), then every sample id through
    ``check_sample_id``: a ``str`` without a carriage return and unique, as
    the CSV writers and reader need. Every column is a read-only array.
    """

    sample_id: np.ndarray
    label: np.ndarray
    probs: np.ndarray
    condition: str = ""
    severity: int = 0

    def __post_init__(self):
        condition, severity = check_tags(self.condition, self.severity)
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError(f"probabilities must be an (n, k) matrix, got shape {probs.shape}")
        n, k = probs.shape
        if n == 0:
            raise ValueError("samples must be non-empty")
        for i in range(n):
            probs[i] = as_probabilities(probs[i])
        ids = np.array(self.sample_id, dtype=object)
        label = np.asarray(self.label)
        for name, column in (("sample_id", ids), ("label", label)):
            if column.shape != (n,):
                raise ValueError(
                    f"{name} must have one entry per row, got shape {column.shape} for {n} rows"
                )
        # Checked before the cast, which would truncate 1.7 or True to 1.
        if label.dtype.kind not in "iu":
            raise ValueError(f"label must hold integers, got {label.dtype}")
        label = label.astype(np.int64)
        bad = (label < 0) | (label >= k)
        if bad.any():
            raise ValueError(f"label {label[bad.argmax()]} out of range for {k} classes")
        first_row: dict[str, int] = {}
        for i, sample_id in enumerate(ids):
            check_sample_id(sample_id, i, first_row, "in row")
        self._install(condition, severity, sample_id=ids, label=label, probs=probs)

    def _install(self, condition: str, severity: int, **columns: np.ndarray) -> None:
        """Set the tags and the columns, each made read-only."""
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "severity", severity)
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def _from_valid(cls, condition: str, severity: int, **columns) -> "SampleBatch":
        """Wrap columns that already form a valid batch, and the tags that
        ``check_tags`` returned, checking nothing. Its one caller is
        ``io.read_logits_csv``, which checks every row itself so that an
        error names its line, each id through ``check_sample_id`` (or, for
        a plain parse block, a bulk check that sends any faulty block to
        it), and refuses a file of no rows."""
        batch = object.__new__(cls)
        batch._install(condition, severity, **columns)
        return batch

    def __len__(self) -> int:
        return self.label.size

    @property
    def k_classes(self) -> int:
        return self.probs.shape[1]
