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
import re
from dataclasses import dataclass, fields
from io import StringIO
from itertools import chain, islice
from pathlib import Path
from typing import Sequence

import numpy as np

from . import core
from .calibration import THRESHOLDS_FORMAT_VERSION, CalibratedThresholds, RocCurve
from .core import SEVERITY_MAX, SEVERITY_MIN, SampleBatch, check_tags
from .metrics import EvaluationSummary
from .prediction import BLOCK_CELLS, Evaluations

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
    """Parse a UTF-8 JSON file; invalid UTF-8 or JSON is an ArtifactError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            # json.load decodes the whole file at once: start is its offset.
            raise ArtifactError(
                f"{path}: byte {exc.object[exc.start]:#04x} at offset {exc.start} "
                f"is not valid UTF-8 ({exc.reason})"
            ) from None


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
    When no value holds one, ``values`` itself is returned.
    """
    joined = "".join(values)
    if "," not in joined and '"' not in joined and "\n" not in joined and "\r" not in joined:
        return values
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


def write_samples_csv(samples: SampleBatch, path) -> None:
    """Write samples as probability rows at 9 significant digits."""
    k = samples.k_classes
    row = "%s,%d," + ",".join(["%.9g"] * k) + "\n"
    ids = _text_cells(samples.sample_id.tolist())
    with _open_write(path) as fh:
        fh.write(",".join(["sample_id", "label"] + [f"prob_{j}" for j in range(k)]) + "\n")
        fh.writelines(
            row % (sid, label, *values)
            for sid, label, values in zip(ids, samples.label.tolist(), samples.probs.tolist())
        )


# A label cell: an optional minus sign and ASCII digits, nothing else.
_LABEL = re.compile(r"-?[0-9]+")

# A block's label cells joined by commas, as a bulk parse takes them: each
# at most 18 ASCII digits, more than any class count needs and far below
# the 4,300 digits beyond which int() refuses a string.
_LABELS = re.compile(r"[0-9]{1,18}(?:,[0-9]{1,18})*")

# The bytes a block's UTF-8 text may hold for the bulk parse to read it:
# LF and printable ASCII but the double quote.
_PLAIN_BYTES = b"\n" + bytes(range(0x20, 0x7F)).replace(b'"', b"")

# Value cells read_logits_csv parses in one call. Small on purpose: the id
# strings that outlive each block pin the allocator's arenas, so with
# 65,536 cells `evaluate` on 100,000 rows at k = 10 peaked at 115.7-116.1
# MiB, against 112.8-113.0 MiB with 4,096 and 112.1-112.7 MiB row by row.
PARSE_BLOCK_CELLS = 4096

# Prefixes a mixed-header error names at most.
_SHOWN_PREFIXES = 5


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
        got = sorted(kinds)
        if len(got) > _SHOWN_PREFIXES:
            got = f"{len(got)} prefixes, the first {_SHOWN_PREFIXES} {got[:_SHOWN_PREFIXES]}"
        raise ParseError(path, 1, f"value columns must be all logit_* or all prob_*, got {got}")
    expected = [f"{kind}_{j}" for j in range(len(header) - 2)]
    if header[2:] != expected:
        raise ParseError(
            path, 1, f"value columns must be {kind}_0..{kind}_{len(header) - 3} in order"
        )
    return kind, len(header) - 2


def read_logits_csv(path, condition: str = "", severity: int = 0) -> SampleBatch:
    """Read a logits or probability CSV into a validated batch.

    The header decides whether rows hold raw logits (normalized through
    softmax) or probabilities (validated as-is); mixing is rejected. Each
    row is validated as it is read, so an error names the first faulty
    line. The batch is tagged with the given condition and severity,
    which the file format itself does not carry; they are checked through
    ``core.check_tags`` before the file is opened. Sample ids must be unique
    within the file and may not hold a carriage return, which the
    LF-terminated exports would leave unquoted. A leading UTF-8 byte-order
    mark is ignored (as spreadsheet exports write one); a file that is not
    UTF-8 is an error naming the line of its first bad byte.

    Data lines are read in blocks of about PARSE_BLOCK_CELLS value cells.
    A block of plain lines (printable ASCII without a double quote, LF
    endings) is split and parsed in bulk, one C call for all its values,
    and its ids, labels and cell counts are checked at once. A block the
    bulk pass cannot vouch for goes through a row-by-row csv loop instead,
    and so does the rest of the file once a double quote appears, since a
    quoted cell may span lines; only that loop reports cell, id and label
    errors. Either way each row then goes through ``core.softmax``
    (logit files) and ``core.as_probabilities`` on its own, so the
    messages and line numbers are those of a file read row by row.
    """
    condition, severity = check_tags(condition, severity)
    path = Path(path)
    # Records end at LF or CRLF only, so an unquoted carriage return
    # anywhere else makes the csv reader fail on its line rather than
    # split the row in two.
    try:
        with open(path, "r", encoding="utf-8-sig", newline="\n") as fh:
            sample_ids, labels, probs = _read_rows(path, fh)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return SampleBatch._from_valid(
        condition, severity,
        sample_id=np.array(sample_ids, dtype=object),
        label=np.array(labels, dtype=np.int64),
        probs=probs,
    )


def _read_rows(path, fh) -> tuple[list[str], list[int], np.ndarray]:
    """The ids, labels and validated (n, k) matrix of the open file ``fh``."""
    # ``base`` counts the lines before the csv reader's first.
    reader, base = csv.reader(fh), 0
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "file is empty") from None
        kind, k = _parse_header(path, header)

        # Ids in file order, each with its line; labels; and the
        # validated rows, stacked into a matrix block of about
        # BLOCK_CELLS cells at a time.
        block_rows = max(1, BLOCK_CELLS // k)
        first_line: dict[str, int] = {}
        labels: list[int] = []
        rows: list[np.ndarray] = []
        blocks: list[np.ndarray] = []

        def keep(line_no: int, values) -> None:
            # Looked up on core at each call, so a wrapper set there sees
            # every row.
            try:
                if kind == "logit":
                    values = core.softmax(values)
                rows.append(core.as_probabilities(values))
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            if len(rows) == block_rows:
                blocks.append(np.array(rows))
                rows.clear()

        limit = csv.field_size_limit()
        line_no = reader.line_num + 1
        while block := list(islice(fh, max(1, PARSE_BLOCK_CELLS // k))):
            text = "".join(block)
            parsed = _parse_block(block, text, k, limit)
            if parsed is not None:
                ids, block_labels, values = parsed
                id_lines = dict(zip(ids, range(line_no, line_no + len(block))))
                if len(id_lines) == len(block) and first_line.keys().isdisjoint(id_lines):
                    first_line.update(id_lines)
                    labels.extend(block_labels)
                    for i, row in enumerate(values):
                        keep(line_no + i, row)
                    line_no += len(block)
                    continue

            # Row by row: this block, or once csv quoting appears the rest
            # of the file, since a quoted cell may span lines.
            reader = csv.reader(chain(block, fh) if '"' in text else block)
            base, next_line = line_no - 1, line_no
            for row in reader:
                # A quoted cell may span lines; name the record's first one.
                line_no, next_line = next_line, base + reader.line_num + 1
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
                    if not _LABEL.fullmatch(row[1]):
                        raise ValueError(row[1])
                    label = int(row[1])  # may still have too many digits
                except ValueError:
                    raise ParseError(path, line_no, f"label {row[1]!r} is not an integer") from None
                if not 0 <= label < k:
                    raise ParseError(
                        path, line_no, f"label {label} out of range for {k} classes"
                    )
                try:
                    values = list(map(float, row[2:]))
                except ValueError:
                    raise ParseError(path, line_no, "non-numeric value cell") from None
                labels.append(label)
                keep(line_no, values)
            line_no = next_line
    except csv.Error as exc:
        reason = (
            "carriage return outside a quoted cell"
            if "new-line" in str(exc) else str(exc)
        )
        raise ParseError(path, base + reader.line_num, reason) from None

    if not labels:
        raise ParseError(path, 2, "file contains a header but no data rows")
    if rows:
        blocks.append(np.array(rows))
        rows.clear()
    n = len(labels)
    # Fill the matrix from the last block back, freeing each block once
    # copied: the rows are held about once, not twice as a concatenation
    # would hold them (np.empty's pages take memory only when written).
    probs = np.empty((n, k))
    end = n
    while blocks:
        block = blocks.pop()
        probs[end - len(block):end] = block
        end -= len(block)
    return list(first_line), labels, probs


def _parse_block(lines: list[str], text: str, k: int, limit: int):
    """Parse data lines (joined, ``text``) in bulk as ``(ids, labels, (n, k)
    values)``, or return None where the row-by-row loop could read them
    otherwise or would find a fault in their cells, ids or labels.

    Only plain text is parsed: there ``np.loadtxt`` reads a value cell as
    ``float()`` does (both end in ``PyOS_string_to_double``) or rejects it,
    a line is one record, no cell holds a carriage return and none is
    longer than the csv field size ``limit``.
    """
    if (
        text.encode().translate(None, _PLAIN_BYTES)
        or text.count(",") != len(lines) * (k + 1)
        or max(map(len, lines)) > limit
    ):
        return None
    cells = [line.split(",", 2) for line in lines]
    if min(map(len, cells)) < 3:
        return None
    ids, labels, rests = zip(*cells)
    if not _LABELS.fullmatch(",".join(labels)):
        return None
    labels = list(map(int, labels))
    if max(labels) >= k:
        return None
    try:
        values = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips blank lines, which the row loop counts as 0 cells.
    if values.shape != (len(lines), k):
        return None
    return ids, labels, values


def _not_utf8(path) -> ParseError:
    """The error for a file that does not decode as UTF-8, naming the line
    of its first bad byte (no UTF-8 sequence spans an LF)."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(
                    path, line_no,
                    f"byte {line[exc.start]:#04x} is not valid UTF-8 ({exc.reason})",
                )
    # Reached only if the file changed since it failed to decode.
    return ParseError(path, 1, "file is not valid UTF-8")


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
    doc = {
        key: _number_out(getattr(thresholds, key))
        for key in _THRESHOLDS_FIELDS if key != "format_version"
    }
    doc["format_version"] = THRESHOLDS_FORMAT_VERSION
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
    version = doc.pop("format_version")
    if version != THRESHOLDS_FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unknown format_version {version!r}, expected {THRESHOLDS_FORMAT_VERSION}"
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


# The records columns in file order, each with its format; the batch's
# tags, condition and severity, are the same cells on every row.
_RECORD_COLUMNS = (
    ("sample_id", "%s"), ("condition", None), ("severity", None), ("top1", "%d"),
    ("covered", "%d"), ("abstained", "%d"), ("should_abstain", "%d"), ("set_size", "%d"),
    ("entropy", "%.6f"), ("confidence", "%.6f"), ("margin", "%.6f"), ("score_top1", "%.6f"),
)

# Rows write_records_csv formats at once: the Python objects holding
# their cells stay bounded whatever the batch size.
RECORD_BLOCK_ROWS = 4096


def write_records_csv(ev: Evaluations, path) -> None:
    """Write one row per evaluated sample, booleans as 0/1, reals at 6
    decimals."""
    if len(ev) == 0:
        raise ValueError("evaluations must be non-empty")
    # The tag cells are baked into the row format, their % signs escaped.
    tags = {"condition": _text_cells([ev.condition])[0], "severity": str(ev.severity)}
    row = ",".join(
        spec or tags[name].replace("%", "%%") for name, spec in _RECORD_COLUMNS
    ) + "\n"
    with _open_write(path) as fh:
        fh.write(",".join(name for name, _ in _RECORD_COLUMNS) + "\n")
        for start in range(0, len(ev), RECORD_BLOCK_ROWS):
            block = ev.take(slice(start, start + RECORD_BLOCK_ROWS))
            sample_id, *numbers = (
                getattr(block, name).tolist() for name, spec in _RECORD_COLUMNS if spec
            )
            fh.writelines(row % cells for cells in zip(_text_cells(sample_id), *numbers))


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
class ManifestCondition:
    """One condition of a sweep: its calibration file and its test files
    as ``(severity, path)`` pairs."""

    condition: str
    calibration: str
    tests: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class DatasetManifest:
    k_classes: int
    conditions: tuple[ManifestCondition, ...]


# Every manifest key in file order, with its JSON type; all are required.
_MANIFEST_FIELDS = {
    "format_version": INTEGER,
    "k_classes": ("an integer >= 2", lambda v: is_int(v) and v >= 2),
    "files": ("a list", lambda v: isinstance(v, list)),
}

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


def write_manifest(manifest: DatasetManifest, path) -> None:
    """Write each condition's calibration file, then its test files."""
    files = [
        {"path": name, "condition": c.condition, "severity": sev, "role": role}
        for c in manifest.conditions
        for sev, name, role in [(0, c.calibration, "calibration")]
        + [(sev, name, "test") for sev, name in c.tests]
    ]
    with _open_write(path) as fh:
        json.dump({"format_version": MANIFEST_FORMAT_VERSION, "k_classes": manifest.k_classes,
                   "files": files}, fh, indent=2)
        fh.write("\n")


def read_manifest(path) -> DatasetManifest:
    """Load and check a manifest and group its files by condition: the
    conditions sorted, each one's tests sorted by severity, and every path
    resolved relative to the manifest's directory.

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
    files = [
        check_fields(f"{where} files[{i}]", entry, _ENTRY_FIELDS, ("path", "condition", "severity"))
        for i, entry in enumerate(doc["files"])
    ]
    if not files:
        raise ArtifactError(f"{where} lists no files")
    groups: dict[str, tuple[list[str], dict[int, str]]] = {}  # cond -> (cals, {sev: test})
    for e in files:
        cond, sev, name = e["condition"], e["severity"], e["path"]
        cals, tests = groups.setdefault(cond, ([], {}))
        if e.get("role") == "calibration":
            if sev != 0:
                raise ArtifactError(
                    f"{where}: calibration file {name!r} must have severity 0, got {sev}"
                )
            cals.append(name)
        elif sev in tests:
            raise ArtifactError(
                f"{where}: files {tests[sev]!r} and {name!r} are both test files for "
                f"condition {cond!r} severity {sev}"
            )
        else:
            tests[sev] = name
    conditions = []
    for cond, (cals, tests) in sorted(groups.items()):
        if len(cals) != 1:
            raise ArtifactError(
                f"{where}: condition {cond!r} has {len(cals)} calibration files, expected exactly 1"
            )
        if not tests:
            raise ArtifactError(f"{where}: condition {cond!r} has no test files")
        conditions.append(ManifestCondition(cond, str(path.parent / cals[0]), tuple(
            (sev, str(path.parent / name)) for sev, name in sorted(tests.items())
        )))
    return DatasetManifest(doc["k_classes"], tuple(conditions))
