"""File formats: logits/probability CSVs, threshold artifacts, per-sample
evaluation and summary exports, dataset manifests.

All text files are UTF-8 with LF line endings and '.' decimal separators
regardless of locale. Writers are deterministic: identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .calibration import THRESHOLDS_FORMAT_VERSION, CalibratedThresholds, RocCurve
from .core import LabeledSample
from .metrics import EvaluationSummary
from .prediction import Evaluations

MANIFEST_FORMAT_VERSION = 1

RECORDS_HEADER = (
    "sample_id,condition,severity,top1,covered,abstained,should_abstain,"
    "set_size,entropy,confidence,margin,score_top1"
)
SUMMARY_HEADER = (
    "condition,severity,n,coverage,avg_set_size,avg_entropy,avg_confidence,"
    "avg_margin,abstention_rate,auc"
)


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class ArtifactError(ValueError):
    """A persisted artifact failed version or invariant validation."""


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# logits / probability CSV


def write_samples_csv(samples: Sequence[LabeledSample], path) -> None:
    """Write samples as probability rows at 9 significant digits."""
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    k = samples[0].k_classes
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label"] + [f"prob_{j}" for j in range(k)])
        for smp in samples:
            writer.writerow(
                [smp.sample_id, smp.label] + [f"{v:.9g}" for v in smp.probs]
            )


def _parse_header(path, header: list[str]) -> tuple[str, int]:
    """Return (kind, k) where kind is 'logit' or 'prob'."""
    if len(header) < 4 or header[0] != "sample_id" or header[1] != "label":
        raise ParseError(
            path, 1, "header must start with 'sample_id,label' followed by "
            "logit_0.. or prob_0.. columns"
        )
    kinds = {col.split("_", 1)[0] for col in header[2:]}
    if kinds == {"logit"}:
        kind = "logit"
    elif kinds == {"prob"}:
        kind = "prob"
    else:
        raise ParseError(
            path, 1, f"value columns must be all logit_* or all prob_*, got {sorted(kinds)}"
        )
    expected = [f"{kind}_{j}" for j in range(len(header) - 2)]
    if header[2:] != expected:
        raise ParseError(
            path, 1, f"value columns must be {kind}_0..{kind}_{len(header) - 3} in order"
        )
    return kind, len(header) - 2


def read_logits_csv(path, condition: str = "", severity: int = 0) -> list[LabeledSample]:
    """Read a logits or probability CSV into validated samples.

    The header decides whether rows hold raw logits (normalized through
    softmax) or probabilities (validated as-is); mixing is rejected. The
    samples are tagged with the given condition and severity, which the
    file format itself does not carry. Sample ids must be unique within
    the file. A leading UTF-8 byte-order mark (as spreadsheet exports
    write) is ignored.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "file is empty") from None
        kind, k = _parse_header(path, header)

        samples = []
        first_line: dict[str, int] = {}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != k + 2:
                raise ParseError(
                    path, line_no, f"expected {k + 2} cells, got {len(row)}"
                )
            sample_id = row[0]
            if sample_id in first_line:
                raise ParseError(
                    path, line_no, f"duplicate sample_id {sample_id!r} "
                    f"(first on line {first_line[sample_id]})"
                )
            first_line[sample_id] = line_no
            try:
                label = int(row[1])
            except ValueError:
                raise ParseError(path, line_no, f"label {row[1]!r} is not an integer") from None
            if not 0 <= label < k:
                raise ParseError(
                    path, line_no, f"label {label} out of range for {k} classes"
                )
            try:
                values = [float(cell) for cell in row[2:]]
            except ValueError:
                raise ParseError(path, line_no, "non-numeric value cell") from None
            try:
                if kind == "logit":
                    smp = LabeledSample.from_logits(
                        sample_id, label, values, condition, severity
                    )
                else:
                    smp = LabeledSample(sample_id, label, values, condition, severity)
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            samples.append(smp)

    if not samples:
        raise ParseError(path, 2, "file contains a header but no data rows")
    return samples


# ---------------------------------------------------------------------------
# thresholds artifact


def _number_out(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _number_in(value, field: str) -> float:
    if value in ("inf", "-inf"):
        return math.inf if value == "inf" else -math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ArtifactError(f"field {field!r} must be a number or 'inf'/'-inf', got {value!r}")


def _read_json_object(path, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}: {what} must be a JSON object")
    return doc


def write_thresholds(thresholds: CalibratedThresholds, path) -> None:
    doc = {
        "q_conf": _number_out(thresholds.q_conf),
        "q_abs": _number_out(thresholds.q_abs),
        "alpha": thresholds.alpha,
        "n_calibration": thresholds.n_calibration,
        "youden_j": thresholds.youden_j,
        "k_classes": thresholds.k_classes,
        "created_utc": thresholds.created_utc,
        "format_version": thresholds.format_version,
    }
    with _open_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_thresholds(path) -> CalibratedThresholds:
    """Load and re-validate a thresholds artifact.

    Unknown format versions and any invariant violation (tampered alpha,
    negative q_conf, ...) are rejected rather than propagated.
    """
    doc = _read_json_object(path, "thresholds")
    required = {
        "q_conf", "q_abs", "alpha", "n_calibration", "youden_j",
        "k_classes", "created_utc", "format_version",
    }
    missing = required - doc.keys()
    if missing:
        raise ArtifactError(f"{path}: missing keys {sorted(missing)}")
    if doc["format_version"] != THRESHOLDS_FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unknown format_version {doc['format_version']!r}, "
            f"expected {THRESHOLDS_FORMAT_VERSION}"
        )
    try:
        return CalibratedThresholds(
            q_conf=_number_in(doc["q_conf"], "q_conf"),
            q_abs=_number_in(doc["q_abs"], "q_abs"),
            alpha=float(doc["alpha"]),
            n_calibration=int(doc["n_calibration"]),
            youden_j=float(doc["youden_j"]),
            k_classes=int(doc["k_classes"]),
            created_utc=str(doc["created_utc"]),
            format_version=int(doc["format_version"]),
        )
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# evaluation exports


def _fixed6(values) -> list[str]:
    return [f"{v:.6f}" for v in values.tolist()]


def write_records_csv(ev: Evaluations, path) -> None:
    """Write one row per evaluated sample, booleans as 0/1, reals at 6
    decimals."""
    if len(ev) == 0:
        raise ValueError("evaluations must be non-empty")
    columns = (
        ev.sample_id.tolist(),
        ev.condition.tolist(),
        ev.severity.tolist(),
        ev.top1.tolist(),
        ev.covered.astype(np.int64).tolist(),
        ev.abstained.astype(np.int64).tolist(),
        ev.should_abstain.astype(np.int64).tolist(),
        ev.set_size.tolist(),
        _fixed6(ev.entropy),
        _fixed6(ev.confidence),
        _fixed6(ev.margin),
        _fixed6(ev.score_top1),
    )
    with _open_write(path) as fh:
        fh.write(RECORDS_HEADER + "\n")
        csv.writer(fh, lineterminator="\n").writerows(zip(*columns))


def write_summary(summaries: Sequence[EvaluationSummary], path, format: str = "csv") -> None:
    """Write grouped summaries as CSV or JSON.

    An absent AUC becomes an empty CSV cell or a JSON null.
    """
    if len(summaries) == 0:
        raise ValueError("summaries must be non-empty")
    if format == "csv":
        with _open_write(path) as fh:
            fh.write(SUMMARY_HEADER + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            for s in summaries:
                writer.writerow(
                    [
                        s.condition,
                        s.severity,
                        s.n,
                        f"{s.coverage:.6f}",
                        f"{s.avg_set_size:.6f}",
                        f"{s.avg_entropy:.6f}",
                        f"{s.avg_confidence:.6f}",
                        f"{s.avg_margin:.6f}",
                        f"{s.abstention_rate:.6f}",
                        "" if s.auc is None else f"{s.auc:.6f}",
                    ]
                )
    elif format == "json":
        docs = [
            {
                "condition": s.condition,
                "severity": s.severity,
                "n": s.n,
                "coverage": round(s.coverage, 6),
                "avg_set_size": round(s.avg_set_size, 6),
                "avg_entropy": round(s.avg_entropy, 6),
                "avg_confidence": round(s.avg_confidence, 6),
                "avg_margin": round(s.avg_margin, 6),
                "abstention_rate": round(s.abstention_rate, 6),
                "auc": None if s.auc is None else round(s.auc, 6),
            }
            for s in summaries
        ]
        with _open_write(path) as fh:
            json.dump(docs, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def write_roc_csv(curve: RocCurve, path) -> None:
    """Export one curve's operating points as tau,fpr,tpr rows."""
    with _open_write(path) as fh:
        fh.write("tau,fpr,tpr\n")
        for tau, fpr, tpr in curve.points():
            fh.write(f"{tau:.6f},{fpr:.6f},{tpr:.6f}\n")


# ---------------------------------------------------------------------------
# dataset manifest


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    condition: str
    severity: int
    role: str = "test"  # "calibration" or "test"


@dataclass(frozen=True)
class DatasetManifest:
    k_classes: int
    files: tuple[ManifestEntry, ...]
    format_version: int = MANIFEST_FORMAT_VERSION

    def resolve(self, base_dir) -> "DatasetManifest":
        """Return a copy with file paths resolved against base_dir."""
        base = Path(base_dir)
        files = tuple(
            ManifestEntry(str(base / e.path), e.condition, e.severity, e.role)
            for e in self.files
        )
        return DatasetManifest(self.k_classes, files, self.format_version)


def write_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "format_version": manifest.format_version,
        "k_classes": manifest.k_classes,
        "files": [
            {
                "path": e.path,
                "condition": e.condition,
                "severity": e.severity,
                "role": e.role,
            }
            for e in manifest.files
        ],
    }
    with _open_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_manifest(path) -> DatasetManifest:
    """Load a manifest; file paths are resolved relative to its directory."""
    path = Path(path)
    doc = _read_json_object(path, "manifest")
    if doc.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unknown format_version {doc.get('format_version')!r}"
        )
    try:
        entries = tuple(
            ManifestEntry(
                path=str(e["path"]),
                condition=str(e["condition"]),
                severity=int(e["severity"]),
                role=str(e.get("role", "test")),
            )
            for e in doc["files"]
        )
        manifest = DatasetManifest(
            k_classes=int(doc["k_classes"]), files=entries
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed manifest ({exc})") from None
    for e in manifest.files:
        if e.role not in ("calibration", "test"):
            raise ArtifactError(f"{path}: unknown role {e.role!r} for {e.path!r}")
    return manifest.resolve(path.parent)
