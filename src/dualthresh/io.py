"""File formats: logits/probability CSVs, threshold artifacts, per-sample
evaluation, summary and heatmap exports, dataset manifests, and the JSON
checks the sweep config shares.

All text files are UTF-8 with LF line endings and '.' decimal separators
regardless of locale. Writers are deterministic: identical inputs produce
byte-identical files. Every JSON object read is checked against a table of
its keys and their JSON types; nothing is coerced.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from io import StringIO
from pathlib import Path
from typing import Sequence

from .calibration import THRESHOLDS_FORMAT_VERSION, CalibratedThresholds, RocCurve
from .core import SEVERITY_MAX, SEVERITY_MIN, LabeledSample, stack_samples
from .metrics import EvaluationSummary
from .prediction import Evaluations

MANIFEST_FORMAT_VERSION = 1

# The summary columns are EvaluationSummary's fields in order; those after
# ``n`` are the metrics, which heatmap.csv pivots.
_SUMMARY_COLUMNS = tuple(f.name for f in fields(EvaluationSummary))
_SUMMARY_TAGS = _SUMMARY_COLUMNS[: _SUMMARY_COLUMNS.index("n") + 1]
_SUMMARY_METRICS = _SUMMARY_COLUMNS[len(_SUMMARY_TAGS):]


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class ArtifactError(ValueError):
    """A JSON input failed type, version or invariant validation."""


# ---------------------------------------------------------------------------
# JSON inputs


def is_int(value) -> bool:
    """True for a JSON integer; bool subclasses int but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


# A JSON type as (the phrase an error message uses, check).
INTEGER = ("an integer", is_int)
NUMBER = ("a number", lambda v: is_int(v) or isinstance(v, float))
STRING = ("a string", lambda v: isinstance(v, str))


def load_json(path):
    """Parse a UTF-8 JSON file; invalid JSON is an ArtifactError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}: not valid JSON ({exc})") from None


def check_fields(where: str, doc, types: dict, required=()) -> dict:
    """Return ``doc`` if it is a JSON object holding every ``required`` key
    and only keys of ``types``, each passing its ``(phrase, check)`` type;
    otherwise raise an ArtifactError starting with ``where``."""
    if not isinstance(doc, dict):
        raise ArtifactError(f"{where} must be a JSON object")
    unknown = doc.keys() - types.keys()
    if unknown:
        raise ArtifactError(f"{where} has unknown keys {sorted(unknown)}")
    missing = set(required) - doc.keys()
    if missing:
        raise ArtifactError(f"{where} is missing keys {sorted(missing)}")
    for key, value in doc.items():
        want, ok = types[key]
        if not ok(value):
            raise ArtifactError(f"{where} key {key!r} must be {want}, got {value!r}")
    return doc


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="")


def _text_cells(values: list[str]) -> list[str]:
    """Return free-text values as the CSV cells ``csv.writer`` writes for
    them in a row of several cells.

    A value holding none of ``,`` ``"`` ``\\n`` ``\\r`` is its own cell; any
    other goes through ``csv.writer`` itself, which alone decides quoting.
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for value in values:
        if "," in value or '"' in value or "\n" in value or "\r" in value:
            buf.seek(0)
            buf.truncate()
            writer.writerow([value])
            value = buf.getvalue()[:-1]
        cells.append(value)
    return cells


# ---------------------------------------------------------------------------
# logits / probability CSV


def write_samples_csv(samples: Sequence[LabeledSample], path) -> None:
    """Write samples as probability rows at 9 significant digits.

    A batch with mixed class counts is rejected before the file is opened.
    """
    labels, probs = stack_samples(samples)
    k = probs.shape[1]
    row = "%s,%d," + ",".join(["%.9g"] * k) + "\n"
    ids = _text_cells([smp.sample_id for smp in samples])
    with _open_write(path) as fh:
        fh.write(",".join(["sample_id", "label"] + [f"prob_{j}" for j in range(k)]) + "\n")
        fh.writelines(
            row % (sid, label, *values)
            for sid, label, values in zip(ids, labels.tolist(), probs.tolist())
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
    the file and may not hold a carriage return, which the LF-terminated
    exports would leave unquoted. A leading UTF-8 byte-order mark (as
    spreadsheet exports write) is ignored.
    """
    path = Path(path)
    # Records end at LF or CRLF only, so an unquoted carriage return
    # anywhere else makes the csv reader fail on its line rather than
    # split the row in two.
    with open(path, "r", encoding="utf-8-sig", newline="\n") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(path, 1, "file is empty") from None
            kind, k = _parse_header(path, header)

            samples = []
            first_line: dict[str, int] = {}
            next_line = reader.line_num + 1
            for row in reader:
                # A quoted cell may span lines; name the record's first one.
                line_no, next_line = next_line, reader.line_num + 1
                if len(row) != k + 2:
                    raise ParseError(
                        path, line_no, f"expected {k + 2} cells, got {len(row)}"
                    )
                sample_id = row[0]
                if "\r" in sample_id:
                    raise ParseError(
                        path, line_no, f"sample_id {sample_id!r} holds a carriage return"
                    )
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
        except csv.Error as exc:
            reason = (
                "carriage return outside a quoted cell"
                if "new-line" in str(exc) else str(exc)
            )
            raise ParseError(path, reader.line_num, reason) from None

    if not samples:
        raise ParseError(path, 2, "file contains a header but no data rows")
    return samples


# ---------------------------------------------------------------------------
# thresholds artifact

# A real that may be infinite; JSON has no number for inf.
_REAL = ("a number or 'inf'/'-inf'", lambda v: v in ("inf", "-inf") or NUMBER[1](v))

# Every thresholds key in file order, with its JSON type; all are required.
_THRESHOLDS_FIELDS = {
    "q_conf": _REAL,
    "q_abs": _REAL,
    "alpha": NUMBER,
    "n_calibration": INTEGER,
    "youden_j": NUMBER,
    "k_classes": INTEGER,
    "created_utc": STRING,
    "format_version": INTEGER,
}


def _number_out(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def write_thresholds(thresholds: CalibratedThresholds, path) -> None:
    doc = {key: _number_out(getattr(thresholds, key)) for key in _THRESHOLDS_FIELDS}
    with _open_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_thresholds(path) -> CalibratedThresholds:
    """Load and re-validate a thresholds artifact.

    Every key must be present with its JSON type. Unknown format versions
    and any invariant violation (tampered alpha, negative q_conf, ...) are
    rejected rather than propagated.
    """
    doc = check_fields(
        f"{path}: thresholds", load_json(path), _THRESHOLDS_FIELDS, _THRESHOLDS_FIELDS
    )
    if doc["format_version"] != THRESHOLDS_FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unknown format_version {doc['format_version']!r}, "
            f"expected {THRESHOLDS_FORMAT_VERSION}"
        )
    try:
        return CalibratedThresholds(**{
            key: float(value) if _THRESHOLDS_FIELDS[key] in (_REAL, NUMBER) else value
            for key, value in doc.items()
        })
    except (OverflowError, ValueError) as exc:
        raise ArtifactError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# evaluation exports


def write_records_csv(ev: Evaluations, path) -> None:
    """Write one row per evaluated sample, booleans as 0/1, reals at 6
    decimals."""
    if len(ev) == 0:
        raise ValueError("evaluations must be non-empty")
    columns = (
        ("sample_id", "%s", _text_cells(ev.sample_id.tolist())),
        ("condition", "%s", _text_cells(ev.condition.tolist())),
        ("severity", "%d", ev.severity.tolist()),
        ("top1", "%d", ev.top1.tolist()),
        ("covered", "%d", ev.covered.tolist()),
        ("abstained", "%d", ev.abstained.tolist()),
        ("should_abstain", "%d", ev.should_abstain.tolist()),
        ("set_size", "%d", ev.set_size.tolist()),
        ("entropy", "%.6f", ev.entropy.tolist()),
        ("confidence", "%.6f", ev.confidence.tolist()),
        ("margin", "%.6f", ev.margin.tolist()),
        ("score_top1", "%.6f", ev.score_top1.tolist()),
    )
    row = ",".join(spec for _, spec, _ in columns) + "\n"
    with _open_write(path) as fh:
        fh.write(",".join(name for name, _, _ in columns) + "\n")
        fh.writelines(row % cells for cells in zip(*(column for _, _, column in columns)))


def _cell(value) -> str:
    return "" if value is None else f"{value:.6f}"


def _summary_row(s: EvaluationSummary, metric_out) -> list:
    return [getattr(s, c) for c in _SUMMARY_TAGS] + [
        metric_out(getattr(s, m)) for m in _SUMMARY_METRICS
    ]


def write_summary(summaries: Sequence[EvaluationSummary], path, format: str = "csv") -> None:
    """Write grouped summaries as CSV or JSON.

    An absent AUC becomes an empty CSV cell or a JSON null.
    """
    if len(summaries) == 0:
        raise ValueError("summaries must be non-empty")
    if format == "csv":
        with _open_write(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_SUMMARY_COLUMNS)
            writer.writerows(_summary_row(s, _cell) for s in summaries)
    elif format == "json":
        docs = [
            dict(zip(_SUMMARY_COLUMNS, _summary_row(s, lambda v: v if v is None else round(v, 6))))
            for s in summaries
        ]
        with _open_write(path) as fh:
            json.dump(docs, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def write_heatmap(summaries: Sequence[EvaluationSummary], path) -> None:
    """Pivot summaries into ``metric,condition,severity_*`` rows: one block
    per summary metric, one row per condition, sorted; a group that is
    absent or has no value for a metric is an empty cell. Cells are quoted
    as in the other CSV exports."""
    severities = sorted({s.severity for s in summaries})
    conditions = sorted({s.condition for s in summaries})
    cells = {(s.condition, s.severity): s for s in summaries}
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "condition"] + [f"severity_{v}" for v in severities])
        for metric in _SUMMARY_METRICS:
            for cond in conditions:
                groups = [cells.get((cond, sev)) for sev in severities]
                writer.writerow([metric, cond] + [
                    _cell(None if s is None else getattr(s, metric)) for s in groups
                ])


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


# Every entry key in file order, with its JSON type; ``role`` is optional.
_ENTRY_FIELDS = {
    "path": STRING,
    "condition": (
        "a string without a carriage return", lambda v: isinstance(v, str) and "\r" not in v
    ),
    "severity": (
        f"an integer in [{SEVERITY_MIN}, {SEVERITY_MAX}]",
        lambda v: is_int(v) and SEVERITY_MIN <= v <= SEVERITY_MAX,
    ),
    "role": ("'calibration' or 'test'", lambda v: v in ("calibration", "test")),
}


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


# Every manifest key in file order, with its JSON type; all are required.
_MANIFEST_FIELDS = {
    "format_version": INTEGER,
    "k_classes": INTEGER,
    "files": ("a list", lambda v: isinstance(v, list)),
}


def write_manifest(manifest: DatasetManifest, path) -> None:
    doc = {key: getattr(manifest, key) for key in _MANIFEST_FIELDS}
    doc["files"] = [{key: getattr(e, key) for key in _ENTRY_FIELDS} for e in manifest.files]
    with _open_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_manifest(path) -> DatasetManifest:
    """Load and check a manifest; file paths are resolved relative to its
    directory.

    Besides the key types, the files must form a sweep: at least one file,
    each condition with exactly one calibration file, at severity 0, and
    at least one test file, with at most one per severity. No condition
    may hold a carriage return.
    """
    path = Path(path)
    where = f"{path}: manifest"
    doc = check_fields(where, load_json(path), _MANIFEST_FIELDS, _MANIFEST_FIELDS)
    if doc["format_version"] != MANIFEST_FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unknown format_version {doc['format_version']!r}, "
            f"expected {MANIFEST_FORMAT_VERSION}"
        )
    files = tuple(
        ManifestEntry(**check_fields(
            f"{where} files[{i}]", entry, _ENTRY_FIELDS, ("path", "condition", "severity")
        ))
        for i, entry in enumerate(doc["files"])
    )
    if not files:
        raise ArtifactError(f"{where} lists no files")
    for e in files:
        if e.role == "calibration" and e.severity != 0:
            raise ArtifactError(
                f"{where}: calibration file {e.path!r} must have severity 0, got {e.severity}"
            )
    for cond in sorted({e.condition for e in files}):
        roles = [e.role for e in files if e.condition == cond]
        if roles.count("calibration") != 1:
            raise ArtifactError(
                f"{where}: condition {cond!r} has {roles.count('calibration')} "
                "calibration files, expected exactly 1"
            )
        if "test" not in roles:
            raise ArtifactError(f"{where}: condition {cond!r} has no test files")
    tests: dict[tuple[str, int], str] = {}
    for e in files:
        if e.role == "test":
            if (e.condition, e.severity) in tests:
                raise ArtifactError(
                    f"{where}: files {tests[e.condition, e.severity]!r} and {e.path!r} are "
                    f"both test files for condition {e.condition!r} severity {e.severity}"
                )
            tests[e.condition, e.severity] = e.path
    return DatasetManifest(doc["k_classes"], files).resolve(path.parent)
