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
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path
from stat import S_IMODE, S_ISREG
from typing import Sequence

import numpy as np

from . import core
from .calibration import THRESHOLDS_FORMAT_VERSION, CalibratedThresholds, RocCurve
from .core import SEVERITY_MAX, SEVERITY_MIN, SampleBatch, block_rows, check_tags
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


def accepts(check, *args) -> bool:
    """True when ``check(*args)`` raises no ValueError: a JSON type whose
    rule a checker owns is spelled through it."""
    try:
        check(*args)
    except ValueError:
        return False
    return True


# The JSON types of core.check_tags' two tags, which the config's lists
# and the manifest's entries share.
CONDITION = ("a string without a carriage return", lambda v: accepts(check_tags, v, 0))
SEVERITY = (f"an integer in [{SEVERITY_MIN}, {SEVERITY_MAX}]", lambda v: accepts(check_tags, "", v))


def load_json(path):
    """Parse a UTF-8 JSON file; invalid UTF-8 or JSON, or an object that
    repeats a key, is an ArtifactError."""

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ArtifactError(f"{path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
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


def _descriptor(path) -> int | None:
    """The descriptor ``path`` names: 1 for ``/dev/stdout``, 2 for
    ``/dev/stderr``, N for ``/dev/fd/N`` or ``/proc/self/fd/N``; else None."""
    path = os.path.abspath(path)
    fd = re.fullmatch(r"/(?:dev|proc/self)/fd/([0-9]+)", path)
    return int(fd[1]) if fd else {"/dev/stdout": 1, "/dev/stderr": 2}.get(path)


def _temp_name(name: str, tag: str) -> str:
    """The name of the temporary ``_open_write`` fills for the file
    ``name``, beside it; ``tag`` is 12 lowercase hex digits."""
    return f".{name}.{tag}.tmp"


def remove_temporaries(paths) -> None:
    """Remove every regular file that is a temporary ``_open_write`` left
    for one of ``paths``, as a process killed mid-write leaves it. Each
    directory is scanned once; one that does not exist holds none.
    Directories, symbolic links and other names are left alone."""
    owned: dict[str, set[str]] = {}
    for path in paths:
        head, name = os.path.split(os.path.realpath(path))
        owned.setdefault(head, set()).add(name)
    for head, names in owned.items():
        try:
            with os.scandir(head) as scan:
                entries = list(scan)
        except (FileNotFoundError, NotADirectoryError):
            continue
        for entry in entries:
            name, tag = entry.name[1:-17], entry.name[-16:-4]
            if (
                name in names and entry.name == _temp_name(name, tag)
                and re.fullmatch("[0-9a-f]{12}", tag) and entry.is_file(follow_symlinks=False)
            ):
                os.unlink(entry.path)


@contextmanager
def _open_write(path):
    """Open ``path`` for UTF-8 text output that appears whole or not at all:
    the text goes to a new ``.NAME.*.tmp`` beside the file the path resolves
    to, and ``os.replace`` moves it there when the block ends; any exception
    removes it instead. Modes, links and refusals are those of
    ``open(path, "w")``. A path naming an open descriptor of the process
    (``/dev/stdout``, ``/dev/fd/N``) is written through a duplicate of it,
    sharing its offset with what the process prints there; any other target
    that exists but is not a regular file (a FIFO) is written in place."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    fd = None if st is None else _descriptor(path)
    if fd is not None or st is not None and not S_ISREG(st.st_mode):
        with open(path if fd is None else os.dup(fd), "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    head, name = os.path.split(os.path.realpath(path))
    temp = os.path.join(head, _temp_name(name, os.urandom(6).hex()))
    try:  # 0o666 & ~umask, as open gives a new file
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named as open(path, "w") would name it
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if st is not None:  # open's refusal, then the replaced file's bits
                os.close(os.open(path, os.O_WRONLY))
                os.fchmod(fd, S_IMODE(st.st_mode))
            yield fh
        os.replace(temp, os.path.join(head, name))
    except BaseException:
        os.unlink(temp)
        raise


def _text_cells(values: list[str]) -> list[str]:
    """Return free-text values as CSV cells: a value holding ``,`` ``"`` or
    ``\\n`` is wrapped in double quotes, each ``"`` in it doubled; any other
    is its own cell. When no value needs quoting, ``values`` itself is
    returned. A value holding ``\\r`` is a ValueError: the rule leaves it
    bare, and a CSV reader would split its row there."""
    joined = "".join(values)
    if "\r" in joined:
        bad = next(value for value in values if "\r" in value)
        raise ValueError(f"CSV text cell {bad!r} holds a carriage return")
    if "," not in joined and '"' not in joined and "\n" not in joined:
        return values
    return [
        '"' + value.replace('"', '""') + '"'
        if "," in value or '"' in value or "\n" in value else value
        for value in values
    ]


def _write_csv(path, rows) -> None:
    """Write ``rows`` as CSV lines, each cell made a ``str`` and quoted by
    ``_text_cells``, one line at a time."""
    with _open_write(path) as fh:
        fh.writelines(",".join(_text_cells([str(v) for v in row])) + "\n" for row in rows)


def _write_json(doc, path) -> None:
    """Write ``doc`` indented by 2, with a final line feed."""
    with _open_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_versioned(path, where: str, types: dict, version: int) -> dict:
    """Load the JSON file ``path`` and check, in this order, that it holds
    an object, that the object's ``format_version``, when it has one, is
    ``version``, and that it passes ``check_fields`` with every key of
    ``types`` required. So a file of another format names its version,
    not the keys that format spells differently."""
    doc = load_json(path)
    if isinstance(doc, dict) and doc.get("format_version", version) != version:
        raise ArtifactError(
            f"{path}: unknown format_version {doc['format_version']!r}, expected {version}"
        )
    return check_fields(where, doc, types, types)


# ---------------------------------------------------------------------------
# logits / probability CSV


def _write_rows(path, header: list[str], row: str, *columns: np.ndarray) -> None:
    """Write ``header``, then one ``row % cells`` line per row of the 1-D
    ``columns``, a block of ``block_rows(len(header))`` rows at a time. A
    text column (dtype kind O or U) goes through ``_text_cells``; any other
    is made Python numbers a row at a time. A refused cell, like any
    fault, leaves the target as ``_open_write`` found it."""
    step = block_rows(len(header))
    with _open_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), step):
            block = slice(start, start + step)
            cells = (
                _text_cells(c[block].tolist()) if c.dtype.kind in "OU"
                else memoryview(np.ascontiguousarray(c[block]))
                for c in columns
            )
            fh.writelines(row % line for line in zip(*cells))


def write_samples_csv(samples: SampleBatch, path) -> None:
    """Write samples as probability rows at 9 significant digits."""
    k = samples.k_classes
    header = ["sample_id", "label"] + [f"prob_{j}" for j in range(k)]
    row = "%s,%d," + ",".join(["%.9g"] * k) + "\n"
    _write_rows(path, header, row, samples.sample_id, samples.label, *samples.probs.T)


# A label cell: an optional minus sign and ASCII digits, nothing else.
_LABEL = re.compile(r"-?[0-9]+")

# What float() reads in a value cell and the bulk parse never does: a `_`
# digit separator, which np.loadtxt refuses, and a non-ASCII character or a
# quoted cell's line break, which no plain block holds.
_NOT_LOADTXT = re.compile(r"[_\r\n]|[^\x00-\x7f]")

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
# Nor as large as a matrix stack (core.block_rows(k) rows): at k = 1,000
# such a block's text is about 0.9 MB, above glibc's 128 KiB mapping
# threshold, and freeing it raises that threshold above the 512 KiB
# stacks, which then land in the heap; `evaluate` on 10,000 x 1,000 rows
# peaked at 157.7 MiB that way against 114.5 MiB (x86-64 Linux, glibc).
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
    LF-terminated exports would leave unquoted: ``core.check_sample_id``'s
    rule, as for a batch. A value cell is read as ``np.loadtxt`` reads
    it, on either path. A leading UTF-8 byte-order
    mark is ignored (as spreadsheet exports write one); a file that is not
    UTF-8 is an error naming the line of its first bad byte.

    Data lines are read as bytes, in blocks of about PARSE_BLOCK_CELLS
    value cells. A block of plain bytes (printable ASCII without a double
    quote, LF endings) is decoded once, as ASCII, and parsed in bulk, one
    C call for all its values; its ids, labels and cell counts are checked
    at once. A block the bulk pass cannot vouch for goes through a
    row-by-row csv loop instead, which decodes each line as UTF-8 as it
    reaches it and reads past the block only the lines that a quoted cell
    in its last record spans; only that loop reports cell, id and label
    errors. So the first faulty line wins, whatever the block size (a
    record's lines are all decoded before its cells are checked).
    Either way a logit block is then checked as one matrix and normalized
    by one ``core.softmax_rows`` call, and each row goes through
    ``core.as_probabilities`` on its own, so the messages and line numbers
    are those of a file read row by row.
    """
    condition, severity = check_tags(condition, severity)
    path = Path(path)
    with open(path, "rb") as fh:
        sample_ids, labels, probs = _read_rows(path, fh)
    return SampleBatch._from_valid(
        condition, severity,
        sample_id=np.array(sample_ids, dtype=object),
        label=np.array(labels, dtype=np.int64),
        probs=probs,
    )


def _read_rows(path, fh) -> tuple[list[str], list[int], np.ndarray]:
    """The ids, labels and validated (n, k) matrix of the binary file ``fh``."""
    # ``base`` counts the lines before the csv reader's first.
    reader, base = csv.reader(_text_lines(path, fh, 1)), 0
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "file is empty") from None
        kind, k = _parse_header(path, header)

        # Ids in file order, each with its line; labels; and the
        # validated rows, stacked into a matrix block of
        # core.block_rows rows at a time. A stack that size (about 512
        # KiB) is one mapping of its own under glibc's malloc, so the
        # fill below returns its pages as it frees it. One stack per
        # parse block (about 32 KiB) stays in the heap instead: reading
        # 10,000 x 1,000 rows that way peaked at 188 MiB against 114 MiB
        # (x86-64 Linux, glibc).
        stack_rows = block_rows(k)
        first_line: dict[str, int] = {}
        labels: list[int] = []
        rows: list[np.ndarray] = []
        blocks: list[np.ndarray] = []

        def keep(first: int, values) -> None:
            # Validate the rows of ``values``, the first on line ``first``:
            # logits as one matrix, then each row as probabilities. Looked
            # up on core at each call, so a wrapper set there sees them all.
            if kind == "logit":
                values = np.asarray(values)
                finite = np.isfinite(values).all(axis=1)
                if not finite.all():
                    bad = first + int(finite.argmin())
                    raise ParseError(path, bad, "logits contain NaN or infinite entries")
                values = core.softmax_rows(values)
            # A row that fails leaves the rows before it in ``rows``.
            done = len(rows)
            try:
                rows.extend(map(core.as_probabilities, values))
            except ValueError as exc:
                raise ParseError(path, first + len(rows) - done, str(exc)) from None
            if len(rows) >= stack_rows:
                blocks.append(np.array(rows))
                rows.clear()

        line_no = reader.line_num + 1
        while block := list(islice(fh, max(1, PARSE_BLOCK_CELLS // k))):
            parsed = _parse_block(block, k)
            if parsed is not None:
                ids, block_labels, values = parsed
                id_lines = dict(zip(ids, range(line_no, line_no + len(block))))
                if len(id_lines) == len(block) and first_line.keys().isdisjoint(id_lines):
                    first_line.update(id_lines)
                    labels.extend(block_labels)
                    keep(line_no, values)
                    line_no += len(block)
                    continue

            # Row by row: this block, and past it only the lines that a
            # quoted cell in its last record spans, each decoded as the
            # loop reaches it.
            reader = csv.reader(_text_lines(path, chain(block, fh), line_no))
            base, next_line = line_no - 1, line_no
            for row in reader:
                # A quoted cell may span lines; name the record's first one.
                line_no, next_line = next_line, base + reader.line_num + 1
                try:
                    label, values = _record(row, k, first_line, line_no)
                except ValueError as exc:
                    raise ParseError(path, line_no, str(exc)) from None
                labels.append(label)
                keep(line_no, [values])
                if reader.line_num >= len(block):
                    break
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


def _record(row: list[str], k: int, first_line: dict[str, int], line_no: int):
    """Check the csv record ``row`` of line ``line_no`` for ``k`` value
    cells: its cell count, its id (through ``core.check_sample_id``, which
    enters it in ``first_line``), its label and its values, in that order.
    A value cell is read as ``np.loadtxt`` reads it in a bulk block:
    ``float()`` after refusing what only ``float()`` accepts. Return
    ``(label, values)``; a fault is a ValueError naming it."""
    if len(row) != k + 2:
        raise ValueError(f"expected {k + 2} cells, got {len(row)}")
    core.check_sample_id(row[0], line_no, first_line, "on line")
    try:
        if not _LABEL.fullmatch(row[1]):
            raise ValueError(row[1])
        label = int(row[1])  # may still have too many digits
    except ValueError:
        raise ValueError(f"label {row[1]!r} is not an integer") from None
    if not 0 <= label < k:
        raise ValueError(f"label {label} out of range for {k} classes")
    try:
        if any(map(_NOT_LOADTXT.search, row[2:])):
            raise ValueError
        return label, list(map(float, row[2:]))
    except ValueError:
        raise ValueError("non-numeric value cell") from None


def _parse_block(lines: list[bytes], k: int):
    """Parse data lines (raw bytes) in bulk as ``(ids, labels, (n, k)
    values)``, or return None where the row-by-row loop could read them
    otherwise or would find a fault in their cells, ids or labels.

    Only plain bytes are parsed, decoded once as ASCII: there
    ``np.loadtxt`` reads a value cell as the row loop does (``float()``
    on a cell without ``_``, both ending in ``PyOS_string_to_double``) or
    rejects it, a line is one record and no cell holds a carriage return.
    A block with a cell longer than ``csv.field_size_limit()``, which the
    row loop's csv reader refuses, is left to it; its cells are measured
    only when one of its lines is that long.
    """
    text = b"".join(lines)
    if (
        text.translate(None, _PLAIN_BYTES)
        or text.count(b",") != len(lines) * (k + 1)
        or (max(map(len, lines)) > csv.field_size_limit()
            and max(map(len, text.replace(b"\n", b",").split(b","))) > csv.field_size_limit())
    ):
        return None
    try:  # a line of fewer than 3 cells fails the unpacking
        cells = (line.split(",", 2) for line in text.decode("ascii").splitlines())
        ids, labels, rests = zip(*cells, strict=True)
        values = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if not _LABELS.fullmatch(",".join(labels)):
        return None
    labels = list(map(int, labels))
    if max(labels) >= k:
        return None
    # loadtxt skips blank lines, which the row loop counts as 0 cells.
    if values.shape != (len(lines), k):
        return None
    return ids, labels, values


def _text_lines(path, lines, first: int):
    """Yield the byte ``lines`` (each ending at LF only), the first being
    line ``first`` of the file, as UTF-8 text, a byte-order mark dropped
    from line 1; a bad byte is a ParseError naming its line (no UTF-8
    sequence spans an LF)."""
    for line_no, line in enumerate(lines, first):
        if line_no == 1:
            line = line.removeprefix(b"\xef\xbb\xbf")
            if not line:  # the mark alone: an empty file
                return
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                path, line_no, f"byte {line[exc.start]:#04x} is not valid UTF-8 ({exc.reason})"
            ) from None


# ---------------------------------------------------------------------------
# thresholds artifact

# A real that may be infinite; JSON has no number for inf.
_REAL = ("a number or 'inf'/'-inf'", lambda v: v in ("inf", "-inf") or NUMBER[1](v))

# Every thresholds key in file order, with its JSON type; all are required.
_THRESHOLDS_FIELDS = {
    f.name: {"int": INTEGER, "float": _REAL}[f.type] for f in fields(CalibratedThresholds)
} | {"format_version": INTEGER}


def _number_out(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def write_thresholds(thresholds: CalibratedThresholds, path) -> None:
    _write_json({
        f.name: _number_out(getattr(thresholds, f.name)) for f in fields(thresholds)
    } | {"format_version": THRESHOLDS_FORMAT_VERSION}, path)


def read_thresholds(path) -> CalibratedThresholds:
    """Load and re-validate a thresholds artifact.

    A file of another format version is refused first, naming its
    version: the version names the scores the thresholds apply to, so a
    format-1 file must be recalibrated. Then every key must be present
    with its JSON type, and any invariant violation (tampered alpha,
    negative q_conf, an infinite youden_j, ...) is rejected rather than
    propagated.
    """
    doc = _load_versioned(
        path, f"{path}: thresholds", _THRESHOLDS_FIELDS, THRESHOLDS_FORMAT_VERSION
    )
    del doc["format_version"]
    try:
        return CalibratedThresholds(**{
            key: float(value) if _THRESHOLDS_FIELDS[key] is _REAL else value
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
    columns = (getattr(ev, name) for name, spec in _RECORD_COLUMNS if spec)
    _write_rows(path, [name for name, _ in _RECORD_COLUMNS], row, *columns)


def _cell(value) -> str:
    return "" if value is None else f"{value:.6f}"


def _summary_row(s: EvaluationSummary, metric_out) -> list:
    return [getattr(s, c) for c in _SUMMARY_TAGS] + [
        metric_out(getattr(s, m)) for m in _SUMMARY_METRICS
    ]


def write_summary(summaries: Sequence[EvaluationSummary], path, format: str = "csv") -> None:
    """Write grouped summaries as CSV or JSON.

    An absent AUC becomes an empty CSV cell or a JSON null. No summaries
    give the header alone (``[]`` in JSON).
    """
    if format == "csv":
        _write_csv(path, [_SUMMARY_COLUMNS] + [_summary_row(s, _cell) for s in summaries])
    elif format == "json":
        _write_json([
            dict(zip(_SUMMARY_COLUMNS, _summary_row(s, lambda v: v if v is None else round(v, 6))))
            for s in summaries
        ], path)
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
    rows = [["metric", "condition"] + [f"severity_{v}" for v in severities]]
    for metric in _SUMMARY_METRICS:
        for cond in conditions:
            groups = [cells.get((cond, sev)) for sev in severities]
            rows.append([metric, cond] + [
                _cell(None if s is None else getattr(s, metric)) for s in groups
            ])
    _write_csv(path, rows)


def write_roc_csv(curve: RocCurve, path) -> None:
    """Export one curve's operating points as tau,fpr,tpr rows."""
    _write_rows(path, ["tau", "fpr", "tpr"], "%.6f,%.6f,%.6f\n", curve.taus, curve.fpr, curve.tpr)


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
    "condition": CONDITION,
    "severity": SEVERITY,
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
    _write_json({"format_version": MANIFEST_FORMAT_VERSION, "k_classes": manifest.k_classes,
                 "files": files}, path)


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
    doc = _load_versioned(path, where, _MANIFEST_FIELDS, MANIFEST_FORMAT_VERSION)
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
