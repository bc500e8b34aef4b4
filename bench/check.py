"""Independent output check and output digests.

Recomputes what ``dualthresh`` should have written from the input CSVs,
using numpy only; this module never imports ``dualthresh``. Thresholds
follow the package's documented rules:

* ``q_conf`` is the order statistic of the calibration scores
  ``-log clip(p[label], 1e-12, 1)`` at rank ceil((n+1)(1-alpha));
* ``q_abs`` is the score cutoff with the largest Youden J = TPR - FPR for
  flagging top-1 errors (score strictly above the cutoff), found by
  trying every candidate and breaking ties toward the smallest cutoff.

Per group it recomputes coverage, average set size, abstention rate and
the detection AUC (Mann-Whitney with half credit for ties), and compares
them with ``summary.csv`` and ``thresholds.json`` to within ``TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-6
PROB_EPSILON = 1e-12
CHECKED = ("coverage", "avg_set_size", "abstention_rate", "auc")

_CREATED = re.compile(rb'"created_utc": "[^"]*"')


def load_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Labels and probability rows of a samples CSV (prob or logit header)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    k = len(header) - 2
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, k + 2), ndmin=2)
    labels = data[:, 0].astype(np.int64)
    values = data[:, 1:]
    if header[2].startswith("logit_"):
        e = np.exp(values - values.max(axis=1, keepdims=True))
        values = e / e.sum(axis=1, keepdims=True)
    return labels, values


def _scores(probs: np.ndarray) -> np.ndarray:
    return -np.log(np.clip(probs, PROB_EPSILON, 1.0))


def thresholds(labels, probs, alpha: float) -> tuple[float, float]:
    """(q_conf, q_abs) for a calibration set."""
    scores = _scores(probs)[np.arange(labels.size), labels]
    n = scores.size
    rank = math.ceil(Fraction(n + 1) * (1 - Fraction(alpha)))
    q_conf = math.inf if rank > n else float(np.sort(scores)[rank - 1])

    flags = probs.argmax(axis=1) != labels
    pos, neg = np.sort(scores[flags]), np.sort(scores[~flags])
    cands = np.concatenate([[math.inf], np.unique(scores), [-math.inf]])
    tp = pos.size - np.searchsorted(pos, cands, side="right")
    fp = neg.size - np.searchsorted(neg, cands, side="right")
    j = tp * neg.size - fp * pos.size  # J scaled by n_pos * n_neg, exact
    q_abs = float(cands[j == j.max()].min())
    return q_conf, q_abs


def mann_whitney_auc(scores, flags) -> float | None:
    """P(flagged score > unflagged score), ties counting one half."""
    n_pos = int(flags.sum())
    n_neg = flags.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    mid_rank = np.cumsum(counts) - (counts - 1) / 2.0
    u = mid_rank[inverse][flags].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def group_stats(labels, probs, q_conf: float, q_abs: float) -> dict:
    scores = _scores(probs)
    rows = np.arange(labels.size)
    top1 = probs.argmax(axis=1)
    score_top1 = scores[rows, top1]
    return {
        "n": labels.size,
        "coverage": float(np.mean(scores[rows, labels] <= q_conf)),
        "avg_set_size": float(np.mean((scores <= q_conf).sum(axis=1))),
        "abstention_rate": float(np.mean(score_top1 > q_abs)),
        "auc": mann_whitney_auc(score_top1, top1 != labels),
    }


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if math.isinf(want):
        return got == want
    return abs(got - want) <= TOL


def check_summary(path, expected: dict) -> list[str]:
    """Compare summary.csv rows with {(condition, severity): stats}."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {(r["condition"], int(r["severity"])): r for r in rows}
    errors = []
    if set(got) != set(expected):
        return [f"{path}: groups {sorted(got)} != expected {sorted(expected)}"]
    for key, want in expected.items():
        row = got[key]
        if int(row["n"]) != want["n"]:
            errors.append(f"{path} {key}: n={row['n']}, expected {want['n']}")
        for field in CHECKED:
            value = None if row[field] == "" else float(row[field])
            if not _close(value, want[field]):
                errors.append(f"{path} {key}: {field}={value}, expected {want[field]}")
    return errors


def check_thresholds(path, q_conf, q_abs, alpha, n, k) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    got_conf = math.inf if doc.get("q_conf") == "inf" else doc.get("q_conf")
    errors = []
    for field, value, want in (
        ("q_conf", got_conf, q_conf),
        ("q_abs", doc.get("q_abs"), q_abs),
    ):
        if not isinstance(value, (int, float)) or not _close(float(value), want):
            errors.append(f"{path}: {field}={value!r}, expected {want}")
    for field, want in (("alpha", alpha), ("n_calibration", n), ("k_classes", k)):
        if doc.get(field) != want:
            errors.append(f"{path}: {field}={doc.get(field)!r}, expected {want}")
    return errors


def expected_grid(groups: dict, alpha: float) -> dict:
    """{condition: (cal_csv, [(severity, test_csv)])} -> expected summary
    rows, calibrating once per condition as ``sweep`` does."""
    expected = {}
    for cond, (cal_path, tests) in groups.items():
        q_conf, q_abs = thresholds(*load_samples(cal_path), alpha)
        for sev, test_path in tests:
            expected[(cond, sev)] = group_stats(*load_samples(test_path), q_conf, q_abs)
    return expected


def digests(out_dir) -> dict:
    """sha256 and byte size of every file under out_dir, by relative path.

    ``created_utc`` in thresholds.json is wall-clock, so it is masked
    before hashing; the size is that of the file as written.
    """
    out_dir = Path(out_dir)
    result = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size = len(data)
        if path.name == "thresholds.json":
            data = _CREATED.sub(b'"created_utc": "<masked>"', data)
        rel = path.relative_to(out_dir).as_posix()
        result[rel] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": size}
    return result
