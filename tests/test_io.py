import builtins
import csv
import dataclasses
import errno
import json
import math
import os
import stat
import threading
import warnings
from dataclasses import fields
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualthresh.calibration import CalibratedThresholds, calibrate, roc_points
from dualthresh import core, io
from dualthresh.datagen import GeneratorConfig, generate_dataset
from dualthresh.io import (
    ArtifactError,
    DatasetManifest,
    ManifestCondition,
    ParseError,
    read_logits_csv,
    read_manifest,
    read_thresholds,
    write_heatmap,
    write_manifest,
    write_records_csv,
    write_roc_csv,
    write_samples_csv,
    write_summary,
    write_thresholds,
)
from dualthresh.metrics import EvaluationSummary, summarize
from dualthresh.prediction import Evaluations, evaluate_samples

from .test_prediction import sample_batch, traced_peak


# Text with the characters CSV quoting must handle. Left out: lone
# surrogates, which UTF-8 cannot encode.
_TEXT = st.text(
    st.one_of(
        st.sampled_from(',"\n\r \'\ufeff'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
)
# A batch rejects a condition or a sample id holding a carriage return.
_BATCH_TEXT = _TEXT.filter(lambda text: "\r" not in text)


# Reference writers: the csv.writer-based bodies that io's writers replaced
# (the per-sample ones by one format per row, the summary and heatmap ones
# by io._text_cells' own quoting). The new writers must write exactly
# their bytes.
def csv_writer_samples(samples, path):
    k = samples.k_classes
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label"] + [f"prob_{j}" for j in range(k)])
        for sample_id, label, probs in zip(samples.sample_id, samples.label, samples.probs):
            writer.writerow([sample_id, label] + [f"{v:.9g}" for v in probs])


def csv_writer_records(ev, path):
    def fixed6(values):
        return [f"{v:.6f}" for v in values.tolist()]

    columns = (
        ("sample_id", ev.sample_id.tolist()),
        ("condition", [ev.condition] * len(ev)),
        ("severity", [ev.severity] * len(ev)),
        ("top1", ev.top1.tolist()),
        ("covered", ev.covered.astype(np.int64).tolist()),
        ("abstained", ev.abstained.astype(np.int64).tolist()),
        ("should_abstain", ev.should_abstain.astype(np.int64).tolist()),
        ("set_size", ev.set_size.tolist()),
        ("entropy", fixed6(ev.entropy)),
        ("confidence", fixed6(ev.confidence)),
        ("margin", fixed6(ev.margin)),
        ("score_top1", fixed6(ev.score_top1)),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(name for name, _ in columns)
        writer.writerows(zip(*(column for _, column in columns)))


def _fixed6_or_empty(value):
    return "" if value is None else f"{value:.6f}"


_METRICS = [f.name for f in fields(EvaluationSummary)][3:]


def csv_writer_summary(summaries, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["condition", "severity", "n"] + _METRICS)
        for s in summaries:
            writer.writerow(
                [s.condition, s.severity, s.n] + [_fixed6_or_empty(getattr(s, m)) for m in _METRICS]
            )


def csv_writer_heatmap(summaries, path):
    severities = sorted({s.severity for s in summaries})
    groups = {(s.condition, s.severity): s for s in summaries}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "condition"] + [f"severity_{v}" for v in severities])
        for metric in _METRICS:
            for cond in sorted({s.condition for s in summaries}):
                writer.writerow([metric, cond] + [
                    _fixed6_or_empty(getattr(groups[cond, sev], metric))
                    if (cond, sev) in groups else "" for sev in severities
                ])


def reference_roc_csv(curve, path):
    """The f-string loop that write_roc_csv replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("tau,fpr,tpr\n")
        for tau, fpr, tpr in zip(curve.taus.tolist(), curve.fpr.tolist(), curve.tpr.tolist()):
            fh.write(f"{tau:.6f},{fpr:.6f},{tpr:.6f}\n")


def rowwise_read_logits_csv(path, condition="", severity=0):
    """Reference reader: the csv loop that checks, parses and validates one
    row at a time, which the bulk block parse must match."""
    if not core.SEVERITY_MIN <= severity <= core.SEVERITY_MAX:
        raise ValueError(
            f"severity must be in [{core.SEVERITY_MIN}, {core.SEVERITY_MAX}], got {severity}"
        )
    with open(path, "r", encoding="utf-8-sig", newline="\n") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(path, 1, "file is empty") from None
            kind, k = io._parse_header(path, header)
            first_line, labels, rows = {}, [], []
            next_line = reader.line_num + 1
            for row in reader:
                line_no, next_line = next_line, reader.line_num + 1
                if len(row) != k + 2:
                    raise ParseError(path, line_no, f"expected {k + 2} cells, got {len(row)}")
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
                    if not io._LABEL.fullmatch(row[1]):
                        raise ValueError(row[1])
                    label = int(row[1])
                except ValueError:
                    raise ParseError(path, line_no, f"label {row[1]!r} is not an integer") from None
                if not 0 <= label < k:
                    raise ParseError(path, line_no, f"label {label} out of range for {k} classes")
                try:
                    # float() less what np.loadtxt never reads in a block.
                    if any(not c.isascii() or set(c) & set("_\r\n") for c in row[2:]):
                        raise ValueError(row[2:])
                    values = list(map(float, row[2:]))
                except ValueError:
                    raise ParseError(path, line_no, "non-numeric value cell") from None
                try:
                    if kind == "logit":
                        values = core.softmax(values)
                    rows.append(core.as_probabilities(values))
                except ValueError as exc:
                    raise ParseError(path, line_no, str(exc)) from None
                labels.append(label)
        except csv.Error as exc:
            reason = (
                "carriage return outside a quoted cell"
                if "new-line" in str(exc) else str(exc)
            )
            raise ParseError(path, reader.line_num, reason) from None
    if not labels:
        raise ParseError(path, 2, "file contains a header but no data rows")
    return core.SampleBatch._from_valid(
        condition, severity,
        sample_id=np.array(list(first_line), dtype=object),
        label=np.array(labels, dtype=np.int64),
        probs=np.array(rows),
    )


# Cells that a C parser and float() may read differently, or not at all.
_ODD_CELLS = [
    "\x1c0.5", "0.5\x1f", "1_0", "\u0661", "\uff11.\uff15", "nan", "-nan", "inf", "-inf",
    "", " 0.5", "0.5 ", "1e400", "1e-400", "0x1p-1", "+.5", ".", "1e", "1d0", "0.5\x00",
    "\t0.5", "0.5\x7f", "1,5", '"0.5"', "0.5\r", "#0.5", "1e309", "-1e309",
]
_ODD_LABELS = [
    "99999999999999999999", "-1", " 1", "+1", "01", "-0", "1_0", "\u0661", "", "0.0",
    "999999999999999999", "000000000000000000001",
]
_ODD_IDS = ["", "a,b", '"a,b"', '"a\nb"', '"a""b"', 'a"b', "a\rb", "\x1c", "\ufeff", "\u0661"]

# Invalid UTF-8 sequences, each with the reason the decoder gives for it:
# a byte no sequence starts with, a lead byte before ASCII, a 3-byte
# sequence cut short, and an encoded surrogate.
_BAD_UTF8 = {
    b"\xff": "invalid start byte",
    b"\xc3a": "invalid continuation byte",
    b"\xe2\x82a": "invalid continuation byte",
    b"\xed\xa0\x80": "invalid continuation byte",
}


# A value cell's characters: ASCII digits, float punctuation, the
# underscore float() skips, whitespace, the line breaks a quoted cell may
# hold, the words inf and nan, and a non-ASCII digit.
_VALUE_CHARS = list("0123456789+-.eE_ \t\r\n") + ["inf", "nan", "\u0661"]


@st.composite
def _data_files(draw):
    """The text of a logits or probability CSV: mostly valid rows, some
    with an odd id, label, cell or line ending, some blank or duplicated."""
    kind = draw(st.sampled_from(["prob", "logit"]))
    k = draw(st.integers(2, 3))
    lines, ids = [], []
    for i in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(st.sampled_from(
                ["\n", "\r\n", "\n\n", "x,0\n", "x,0,\n", "x,0,0.5,0.5,0.5\n", "x,0, \n"]
            )))
            continue
        sample_id = f"s{i}"
        if ids and draw(st.integers(0, 19)) == 0:
            sample_id = draw(st.sampled_from(ids))
        elif draw(st.integers(0, 9)) == 0:
            sample_id = draw(st.sampled_from(_ODD_IDS))
        ids.append(sample_id)
        label = str(draw(st.integers(0, k - 1)))
        if draw(st.integers(0, 9)) == 0:
            label = draw(st.sampled_from(_ODD_LABELS))
        if kind == "logit":
            logit = st.floats(-50.0, 50.0) | st.sampled_from([700.0, -700.0, 1e308, -1e308])
            values = draw(st.lists(logit, min_size=k, max_size=k))
        else:
            values = draw(st.lists(_EDGE_FLOATS | st.floats(0.0, 1.0 / k),
                                   min_size=k - 1, max_size=k - 1))
            values.append(1.0 - math.fsum(values))
        cells = [f"{v:.9g}" if draw(st.booleans()) else repr(v) for v in values]
        if draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, k - 1))] = draw(st.sampled_from(_ODD_CELLS))
        end = "\r\n" if draw(st.integers(0, 19)) == 0 else "\n"
        lines.append(",".join([sample_id, label, *cells]) + end)
    text = ",".join(["sample_id", "label"] + [f"{kind}_{j}" for j in range(k)]) + "\n"
    text += "".join(lines)
    if draw(st.integers(0, 9)) == 0:
        text = text.rstrip("\n")
    if draw(st.integers(0, 19)) == 0:
        text = "\ufeff" + text
    return text


# Floats whose text is easy to get wrong: signed zero, the smallest
# subnormal, and values that %.9g writes in exponent form.
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-12, 3.5e-5, 2.5e-7, 1e-100])


@st.composite
def _sample_batches(draw):
    """Valid samples sharing one class count; one entry of each row is 1
    minus the others, so rows of tiny entries hold 1.0."""
    k = draw(st.integers(2, 5))
    entry = _EDGE_FLOATS | st.floats(0.0, 1.0 / k)
    rows = []
    # A batch rejects a repeated sample id.
    for sample_id in draw(st.lists(_BATCH_TEXT, min_size=1, max_size=10, unique=True)):
        probs = draw(st.lists(entry, min_size=k - 1, max_size=k - 1))
        probs.insert(draw(st.integers(0, k - 1)), 1.0 - math.fsum(probs))
        rows.append((sample_id, draw(st.integers(0, k - 1)), probs))
    return sample_batch(rows)


@st.composite
def _evaluations(draw):
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 4))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    real = _EDGE_FLOATS | st.sampled_from([1.0, 0.5e-6, -2.5e-7, 1e300]) | st.floats()
    return Evaluations(
        # Conditions the records writer bakes into its row format.
        condition=draw(st.sampled_from(["", "50%", "a,b", 'q"x', "%d"]) | _TEXT),
        severity=draw(st.integers(0, 5)),
        sample_id=column(_TEXT, object),
        label=column(st.integers(0, k - 1), np.int64),
        set_size=column(st.integers(0, k), np.intp),
        covered=column(st.booleans(), bool),
        abstained=column(st.booleans(), bool),
        should_abstain=column(st.booleans(), bool),
        top1=column(st.integers(0, k - 1), np.int64),
        score_top1=column(real, np.float64),
        entropy=column(real, np.float64),
        confidence=column(real, np.float64),
        margin=column(real, np.float64),
    )


# Conditions that need quoting, or that a %-format would misread.
_CONDITIONS = st.sampled_from(["", "plain", "a,b", 'q"x', "%d", "50%", "line\nfeed"]) | _BATCH_TEXT

_summaries = st.lists(
    st.builds(
        EvaluationSummary,
        condition=_CONDITIONS,
        severity=st.integers(0, 5),
        n=st.integers(1, 10**9),
        coverage=st.floats(0.0, 1.0),
        avg_set_size=st.floats(0.0, 1000.0),
        avg_entropy=st.floats(0.0, 1.0),
        avg_confidence=st.floats(0.0, 1.0),
        avg_margin=st.floats(0.0, 1.0),
        abstention_rate=st.floats(0.0, 1.0),
        auc=st.none() | st.floats(0.0, 1.0),
    ),
    min_size=1, max_size=5,
)


@st.composite
def _roc_curves(draw):
    """Curves of up to 30 scores, both flags present: any floats, or a few
    values that tie, hold -0.0 and reach 1e300."""
    values = st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0, 0.5, 1e300])
    scores = draw(st.lists(values, min_size=2, max_size=30))
    flags = draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)))
    flags[0], flags[-1] = True, False
    return roc_points(scores, flags)


def csv_writer_cell(value):
    """The cell csv.writer writes for ``value`` in a row of several."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-len(",\n")]


@settings(max_examples=1000, deadline=None)
@given(values=st.lists(
    st.text(st.sampled_from('a,"\n \x00\u00e9%\t;\'\x85'), max_size=12) | _BATCH_TEXT
))
def test_text_cells_are_csv_writers_cells(values):
    # Values without a carriage return, which a batch rejects and
    # csv.writer leaves unquoted under an LF line terminator.
    assert io._text_cells(values) == [csv_writer_cell(value) for value in values]


class TestWritersMatchCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(samples=_sample_batches(), block_rows=st.integers(1, 9))
    def test_samples_csv_bytes(self, tmp_path_factory, samples, block_rows):
        tmp = tmp_path_factory.mktemp("samples")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK_CELLS", (samples.k_classes + 2) * block_rows)
            write_samples_csv(samples, tmp / "new.csv")
        csv_writer_samples(samples, tmp / "old.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(ev=_evaluations(), block_rows=st.integers(1, 9))
    def test_records_csv_bytes(self, tmp_path_factory, ev, block_rows):
        tmp = tmp_path_factory.mktemp("records")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK_CELLS", 12 * block_rows)
            if "\r" in "".join([ev.condition, *ev.sample_id]):
                # csv.writer leaves a carriage return bare, which splits
                # the row; the writer refuses it instead.
                with pytest.raises(ValueError, match="holds a carriage return"):
                    write_records_csv(ev, tmp / "new.csv")
                return
            write_records_csv(ev, tmp / "new.csv")
        csv_writer_records(ev, tmp / "old.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(summaries=_summaries)
    @example(summaries=[
        EvaluationSummary(c, sev, 10, 0.9, 1.5, 0.25, 0.75, 0.5, 0.125, None if sev else 0.5)
        for c in ["", "a,b", 'q"x', "%d", "line\nfeed"] for sev in (0, 3)
    ])
    def test_summary_and_heatmap_csv_bytes(self, tmp_path_factory, summaries):
        tmp = tmp_path_factory.mktemp("summary")
        write_summary(summaries, tmp / "summary.csv", format="csv")
        csv_writer_summary(summaries, tmp / "summary_old.csv")
        assert (tmp / "summary.csv").read_bytes() == (tmp / "summary_old.csv").read_bytes()
        write_heatmap(summaries, tmp / "heatmap.csv")
        csv_writer_heatmap(summaries, tmp / "heatmap_old.csv")
        assert (tmp / "heatmap.csv").read_bytes() == (tmp / "heatmap_old.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(curve=_roc_curves(), block_rows=st.none() | st.integers(1, 3))
    def test_roc_csv_bytes(self, tmp_path_factory, curve, block_rows):
        # Blocks of 1-3 rows, or one block for the whole curve.
        tmp = tmp_path_factory.mktemp("roc")
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr(core, "BLOCK_CELLS", 3 * block_rows)
            write_roc_csv(curve, tmp / "new.csv")
        reference_roc_csv(curve, tmp / "old.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    def test_text_cell_holding_a_carriage_return_is_refused(self):
        with pytest.raises(ValueError) as err:
            io._text_cells(["a", "b\rc", "d\r"])
        assert str(err.value) == "CSV text cell 'b\\rc' holds a carriage return"

    def test_records_csv_peak(self, tmp_path):
        # Formatting every column at once peaked at 194 bytes a row (9.7 MB
        # here); a block of core.block_rows(12) rows stays within 40 bytes
        # a cell of the block, whatever the batch size.
        n, k = 50_000, 10
        probs = np.random.default_rng(5).dirichlet(np.ones(k), size=n)
        ev = evaluate_samples(
            sample_batch(((f"s{i}", i % k, p) for i, p in enumerate(probs)), "rain", 2),
            thresholds(k_classes=k),
        )
        path = tmp_path / "records.csv"
        assert traced_peak(write_records_csv, ev, path) <= 40 * core.BLOCK_CELLS
        csv_writer_records(ev, tmp_path / "old.csv")
        assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_samples_csv_peak(self, tmp_path):
        # Formatting every row at once peaked at 4.0x the matrix (61 MiB
        # here); blocks of core.block_rows(1002) rows, each making Python
        # numbers of one row at a time, peak at 0.09x. The bytes are
        # test_samples_csv_bytes' concern.
        n, k = 2_000, 1_000
        rng = np.random.default_rng(9)
        samples = core.SampleBatch(
            [f"s{i}" for i in range(n)], rng.integers(0, k, size=n), rng.dirichlet(np.ones(k), n)
        )
        path = tmp_path / "samples.csv"
        assert traced_peak(write_samples_csv, samples, path) <= 0.1 * samples.probs.nbytes
        assert path.stat().st_size > samples.probs.size  # every cell written


def thresholds(**overrides):
    base = dict(
        q_conf=1.25, q_abs=0.8, alpha=0.1, n_calibration=100,
        youden_j=0.7, k_classes=3,
    )
    base.update(overrides)
    return CalibratedThresholds(**base)


class TestSamplesCsv:
    def test_round_trip_probabilities(self, tmp_path):
        samples = generate_dataset(
            GeneratorConfig(k_classes=7, n_samples=200, base_accuracy=0.8,
                            severity=2, seed=101, condition="fog")
        )
        path = tmp_path / "data.csv"
        write_samples_csv(samples, path)
        back = read_logits_csv(path, condition="fog", severity=2)
        assert len(back) == len(samples)
        for name in ("sample_id", "label"):
            assert getattr(back, name).tolist() == getattr(samples, name).tolist()
        assert (back.condition, back.severity) == (samples.condition, samples.severity)
        assert np.max(np.abs(samples.probs - back.probs)) < 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_logit_rows_pass_through_softmax(self, tmp_path):
        path = tmp_path / "logits.csv"
        for last_id in ("c", '"c"'):  # the bulk parse, then the row-by-row loop
            path.write_text(
                "sample_id,label,logit_0,logit_1\n"
                f"a,0,{math.log(4)},0.0\n"
                "b,1,1000.0,1000.0\n"
                f"{last_id},0,1e308,-1e308\n",  # the shift overflows to -inf
                encoding="utf-8",
            )
            samples = read_logits_csv(path)
            assert samples.probs[0] == pytest.approx([0.8, 0.2], abs=1e-12)
            assert samples.probs[1] == pytest.approx([0.5, 0.5], abs=1e-12)
            assert samples.probs[2].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("rows, bulk, message", [
        # Line 4's -inf sits in a bulk block of lines 2-5.
        ("a,0,1.5,-2\nb,1,0,0\nc,0,-inf,0\nd,1,nan,0\n", True, "4"),
        # Line 3's nan comes before line 4's bad label in one block, which
        # is read row by row.
        ("a,0,1.5,-2\nb,1,nan,0\nc,7,0,0\nd,1,0,0\n", False, "3"),
    ], ids=["bulk", "row_by_row"])
    def test_non_finite_logit_row_names_its_line(self, tmp_path, monkeypatch, rows, bulk, message):
        path = tmp_path / "logits.csv"
        path.write_text("sample_id,label,logit_0,logit_1\n" + rows, encoding="utf-8")
        parsed = []
        real = io._parse_block
        monkeypatch.setattr(io, "_parse_block", lambda *a: parsed.append(real(*a)) or parsed[-1])
        monkeypatch.setattr(io, "PARSE_BLOCK_CELLS", 8)  # blocks of 4 rows
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value) == f"{path}:{message}: logits contain NaN or infinite entries"
        assert [p is not None for p in parsed] == [bulk]

    @pytest.mark.parametrize("kind", ["prob", "logit"])
    def test_each_row_is_validated_once_through_core(self, tmp_path, monkeypatch, kind):
        # The reader looks the validators up on core at each call.
        calls = []
        for name in ("as_probabilities", "softmax", "softmax_rows"):
            real = getattr(core, name)
            monkeypatch.setattr(
                core, name, lambda p, name=name, real=real: calls.append(name) or real(p)
            )
        path = tmp_path / "rows.csv"
        path.write_text(
            f"sample_id,label,{kind}_0,{kind}_1\n"
            + "".join(f"s{i},{i % 2},0.25,0.75\n" for i in range(2500)),
            encoding="utf-8",
        )
        monkeypatch.setattr(core, "BLOCK_CELLS", 2048)  # blocks of 1024 rows
        batch = read_logits_csv(path)
        assert len(batch) == 2500 and batch.probs.shape == (2500, 2)
        # Logits take one softmax_rows call per parse block of 2,048 rows.
        assert calls.count("as_probabilities") == 2500
        assert calls.count("softmax") == 0
        assert calls.count("softmax_rows") == (2 if kind == "logit" else 0)
        calls.clear()
        evaluate_samples(batch, thresholds(k_classes=2))
        assert calls == []
        # Parse blocks of 1, 2 and 3 rows: still one validation per row.
        for parse_rows, blocks in ((1, 2500), (2, 1250), (3, 834)):
            monkeypatch.setattr(io, "PARSE_BLOCK_CELLS", 2 * parse_rows)
            assert np.array_equal(read_logits_csv(path).probs, batch.probs)
            assert calls.count("as_probabilities") == 2500
            assert calls.count("softmax") == 0
            assert calls.count("softmax_rows") == (blocks if kind == "logit" else 0)
            calls.clear()

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "sample_id,label,prob_0,prob_1\na,0,0.9,0.1\nb,1,0.3,0.7\n",
            encoding="utf-8",
        )
        assert len(read_logits_csv(path)) == 2

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sample_id,label,prob_0,prob_1\na,0,0.9,0.1\nb,2,0.3,0.7\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert err.value.line == 3
        assert str(path) in str(err.value)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sample_id,label,prob_0,prob_1\na,0,oops,0.1\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert err.value.line == 2

    def test_prob_sum_violation_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sample_id,label,prob_0,prob_1\na,0,0.9,0.3\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="sum"):
            read_logits_csv(path)

    # The documented row-sum tolerance, 1e-6, pinned by value.
    @pytest.mark.parametrize("last", ["0.500002", "0.499998"])
    def test_prob_sum_2e_6_from_one_is_refused(self, tmp_path, last):
        path = tmp_path / "sum.csv"
        path.write_text(f"sample_id,label,prob_0,prob_1\na,0,0.5,{last}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value).startswith(f"{path}:2: probabilities sum to ")

    @pytest.mark.parametrize("last", ["0.5000005", "0.4999995"])
    def test_prob_sum_5e_7_from_one_is_accepted(self, tmp_path, last):
        path = tmp_path / "sum.csv"
        path.write_text(f"sample_id,label,prob_0,prob_1\na,0,0.5,{last}\n", encoding="utf-8")
        assert read_logits_csv(path).probs.tolist() == [[0.5, float(last)]]

    def test_mixed_headers_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "sample_id,label,logit_0,prob_1\na,0,1.0,0.5\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="all logit"):
            read_logits_csv(path)

    def test_misordered_header_rejected(self, tmp_path):
        path = tmp_path / "mis.csv"
        path.write_text(
            "sample_id,label,prob_1,prob_0\na,0,0.5,0.5\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="in order"):
            read_logits_csv(path)

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            read_logits_csv(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("sample_id,label,prob_0,prob_1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="no data rows"):
            read_logits_csv(header_only)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "sample_id,label,prob_0,prob_1\na,0,0.9\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="cells"):
            read_logits_csv(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        samples = generate_dataset(
            GeneratorConfig(k_classes=5, n_samples=300, base_accuracy=0.8,
                            severity=1, seed=17)
        )
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_samples_csv(samples, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a = calibrate(read_logits_csv(plain), 0.1)
        b = calibrate(read_logits_csv(bom), 0.1)
        assert (a.q_conf, a.q_abs, a.youden_j, a.n_calibration) == (
            b.q_conf, b.q_abs, b.youden_j, b.n_calibration
        )

    def test_carriage_return_in_a_sample_id_is_rejected(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(
            b'sample_id,label,prob_0,prob_1\na,0,0.9,0.1\n"b\rc",1,0.3,0.7\n'
        )
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value) == f"{path}:3: sample_id 'b\\rc' holds a carriage return"

    def test_unquoted_carriage_return_does_not_split_the_row(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"sample_id,label,prob_0,prob_1\na,0,0.9,0.1\nb\rc,1,0.3,0.7\n")
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value) == f"{path}:3: carriage return outside a quoted cell"

    def test_crlf_line_endings_are_read(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"sample_id,label,prob_0,prob_1\r\na,0,0.9,0.1\r\nb,1,0.3,0.7\r\n")
        assert read_logits_csv(path).sample_id.tolist() == ["a", "b"]

    def test_oversized_cell_names_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            f"sample_id,label,prob_0,prob_1\na,0,0.9,0.1\n{'x' * 200_000},1,0.3,0.7\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value) == f"{path}:3: field larger than field limit (131072)"

    def test_duplicate_sample_id_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "sample_id,label,prob_0,prob_1\na,0,0.9,0.1\nb,1,0.3,0.7\n"
            "a,1,0.2,0.8\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="duplicate sample_id 'a'") as err:
            read_logits_csv(path)
        assert err.value.line == 4
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("rows, message", [
        ('"a\nb",0,0.9,0.1\nc,7,0.3,0.7\n', "4: label 7 out of range for 2 classes"),
        ('"a\nb",0,0.9,0.1\nc,0,0.3,0.7\n"a\nb",1,0.2,0.8\n',
         "5: duplicate sample_id 'a\\nb' (first on line 2)"),
    ])
    def test_errors_name_physical_lines_after_a_multiline_cell(self, tmp_path, rows, message):
        path = tmp_path / "ln.csv"
        path.write_text("sample_id,label,prob_0,prob_1\n" + rows, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value) == f"{path}:{message}"

    @settings(max_examples=400, deadline=None)
    @given(text=_data_files(), parse_rows=st.integers(1, 4),
           severity=st.sampled_from([0, 0, 0, 5, 6, -1]))
    @example(text="sample_id,label,prob_0,prob_1\na,0,0.5,\x1c0.5\n", parse_rows=1, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,0.5,1_0\n", parse_rows=1, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,\u0661,0.5\n", parse_rows=1, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,0.5,0.5\n\nb,1,0.5,0.5\n",
             parse_rows=3, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,0.5,0.5\nb,1,0.25,0.75",
             parse_rows=2, severity=0)
    @example(text="\ufeffsample_id,label,prob_0,prob_1\na,0,0.5,0.5\n", parse_rows=1, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\r\na,0,0.5,0.5\r\nb,1,0.5,0.5\r\n",
             parse_rows=1, severity=0)
    @example(text='sample_id,label,prob_0,prob_1\n"a,b",0,0.5,0.5\nc,1,0.5,0.5\n',
             parse_rows=1, severity=0)
    @example(text='sample_id,label,prob_0,prob_1\na,0,0.5,0.5\nb,1,0.5,0.5\nc,0,0.5,0.5\n'
                  '"d\ne",1,0.5,0.5\nf,7,0.5,0.5\n', parse_rows=2, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,\nb,1,0.5,0.5,0.5\n",
             parse_rows=2, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,\n", parse_rows=1, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,0.5,0.5\nb,1,0.5,0.5\na,1,0.5,0.5\n",
             parse_rows=2, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,99999999999999999999,0.5,0.5\n",
             parse_rows=1, severity=0)
    @example(text=f"sample_id,label,prob_0,prob_1\na,{'9' * 5000},0.5,0.5\n",
             parse_rows=1, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,0.5,0.5\nb,-1,0.5,0.5\n",
             parse_rows=2, severity=0)
    @example(text=f"sample_id,label,prob_0,prob_1\na,0,0.5,0.5\n{'x' * 200_000},1,0.5,0.5\n",
             parse_rows=2, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,0.5,0.5\nb,1,nan,0.5\n",
             parse_rows=2, severity=0)
    @example(text="sample_id,label,logit_0,logit_1\na,0,1.5,-2\nb,1,1000,1000\n",
             parse_rows=1, severity=0)
    @example(text="sample_id,label,prob_0,prob_1\na,0,0.5,0.5\n", parse_rows=1, severity=6)
    @example(text="sample_id,label,logit_0,logit_1\na,0,1.5,-2\nb,1,nan,0\nc,0,0,inf\n",
             parse_rows=3, severity=0)
    @example(text="sample_id,label,logit_0,logit_1\na,0,1.5,-2\nb,1,-inf,0\n",
             parse_rows=2, severity=0)
    @example(text="sample_id,label,logit_0,logit_1\na,0,1.5,-2\nb,1,0,1e309\n",
             parse_rows=1, severity=0)
    @example(text="sample_id,label,logit_0,logit_1\na,0,inf,0\nb,7,0,0\n",
             parse_rows=2, severity=0)
    @example(text="sample_id,label,logit_0,logit_1,logit_2\na,0,1e308,-1e308,0\n"
                  "b,2,-1e308,1e308,1e308\n", parse_rows=2, severity=0)
    @example(text='sample_id,label,prob_0,prob_1\na,0,0.5,0.5\n"b\nc",1,0.5,0.5\nd,0,0.5,0.5\n',
             parse_rows=1, severity=0)
    def test_bulk_parse_matches_the_rowwise_reader(
        self, tmp_path_factory, text, parse_rows, severity
    ):
        path = tmp_path_factory.mktemp("bulk") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        k = text.split("\n", 1)[0].count(",") - 1

        def outcome(reader):
            try:
                return reader(path, condition="c", severity=severity)
            except ValueError as exc:
                return f"{type(exc).__name__}: {exc}"

        want = outcome(rowwise_read_logits_csv)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")  # as loadtxt warns on a block of no data
            mp.setattr(io, "PARSE_BLOCK_CELLS", parse_rows * k)
            got = outcome(read_logits_csv)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        for name in ("sample_id", "label"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()
        assert (got.condition, got.severity) == (want.condition, want.severity)
        assert np.array_equal(got.probs.view(np.int64), want.probs.view(np.int64))

    @pytest.mark.parametrize("kind, row", [
        ("logit", "a,0,1_000,0\n"),
        ("prob", 'a,0,"0.5\n",0.5\n'),
        ("prob", "a,0,\u0660.\u0665,0.5\n"),
    ], ids=["separator", "line_break", "non_ascii"])
    def test_a_cell_only_float_reads_is_non_numeric(self, tmp_path, kind, row):
        # float() reads each as 1000 or 0.5; np.loadtxt reads none of them.
        path = tmp_path / "cell.csv"
        path.write_bytes(f"sample_id,label,{kind}_0,{kind}_1\n{row}".encode("utf-8"))
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value) == f"{path}:2: non-numeric value cell"

    @settings(max_examples=300, deadline=None)
    @given(cell=st.lists(st.sampled_from(_VALUE_CHARS), max_size=8).map("".join))
    @example(cell="1_000")
    @example(cell="0.5\n")
    @example(cell="0.5\r")
    @example(cell="\u0661")
    @example(cell=" -0\t")
    @example(cell="nan")
    def test_the_row_loop_reads_a_value_cell_as_loadtxt_does(self, tmp_path_factory, cell):
        # A quoted id sends the file to the row loop, which accepts the
        # quoted cell exactly when np.loadtxt reads it between two cells of
        # a line, as in a bulk block, and to the same float.
        try:
            want = np.loadtxt([f"0,{cell},0"], delimiter=",", comments=None, ndmin=2)[0, 1]
        except ValueError:
            want = None
        path = tmp_path_factory.mktemp("cell") / "cell.csv"
        path.write_bytes(f'sample_id,label,logit_0,logit_1\n"a",0,"{cell}",0\n'.encode("utf-8"))
        read = []
        real = core.softmax_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "softmax_rows", lambda z: read.append(z[0, 0]) or real(z))
            try:
                read_logits_csv(path)
                message = None
            except ParseError as exc:
                message = str(exc)
        if want is None:
            assert message == f"{path}:2: non-numeric value cell"
        elif not np.isfinite(want):
            assert message == f"{path}:2: logits contain NaN or infinite entries"
        else:
            assert message is None
            assert np.array(read).tobytes() == np.array([want]).tobytes()

    def test_a_quoted_cell_sends_only_its_own_block_row_by_row(self, tmp_path, monkeypatch):
        # Line 3's quoted id spans into line 4, past its parse block of
        # lines 2-3; the blocks after it are parsed in bulk.
        path = tmp_path / "quoted.csv"
        path.write_text(
            'sample_id,label,prob_0,prob_1\ns0,0,0.5,0.5\n"a\nb",1,0.5,0.5\n'
            + "".join(f"s{i},{i % 2},0.25,0.75\n" for i in range(1, 11)),
            encoding="utf-8",
        )
        parsed = []
        real = io._parse_block
        monkeypatch.setattr(io, "_parse_block", lambda *a: parsed.append(real(*a)) or parsed[-1])
        monkeypatch.setattr(io, "PARSE_BLOCK_CELLS", 4)  # blocks of 2 lines
        batch = read_logits_csv(path)
        assert batch.sample_id.tolist() == ["s0", "a\nb"] + [f"s{i}" for i in range(1, 11)]
        assert [p is not None for p in parsed] == [False] + [True] * 5
        assert np.array_equal(batch.probs, rowwise_read_logits_csv(path).probs)

    def test_a_plain_block_is_decoded_once_not_line_by_line(self, tmp_path, monkeypatch):
        # Only the header and the blocks read row by row pass through
        # io._text_lines; a plain block is decoded whole by _parse_block.
        decoded = []
        real = io._text_lines

        def counting(*a):
            for line in real(*a):
                decoded.append(line)
                yield line

        monkeypatch.setattr(io, "_text_lines", counting)
        monkeypatch.setattr(io, "PARSE_BLOCK_CELLS", 4)  # blocks of 2 lines
        header = "sample_id,label,prob_0,prob_1\n"
        rows = [f"s{i},{i % 2},0.25,0.75\n" for i in range(20)]
        path = tmp_path / "plain.csv"
        path.write_text(header + "".join(rows), encoding="utf-8")
        assert len(read_logits_csv(path)) == 20
        assert decoded == [header]

        # One CRLF line on line 6, in the third block of lines 6-7.
        rows[4] = rows[4].replace("\n", "\r\n")
        path.write_text(header + "".join(rows), encoding="utf-8", newline="")
        decoded.clear()
        batch = read_logits_csv(path)
        assert decoded == [header, rows[4], rows[5]]
        assert np.array_equal(batch.probs, rowwise_read_logits_csv(path).probs)

    def test_severity_is_checked_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("sample_id,label,prob_0,prob_1\na,0,0.5,0.5\n", encoding="utf-8")
        for target in (path, tmp_path / "missing.csv"):
            with pytest.raises(ValueError) as err:
                read_logits_csv(target, severity=9)
            assert type(err.value) is ValueError
            assert str(err.value) == "severity must be in [0, 5], got 9"

    def test_not_utf8_names_the_line_of_the_first_bad_byte(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            b"sample_id,label,prob_0,prob_1\n"
            + b"".join(b"s%d,0,0.5,0.5\n" % i for i in range(3000))
            + b"caf\xe9,1,0.5,0.5\nx\xff,0,0.5,0.5\n"
        )
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value) == (
            f"{path}:3002: byte 0xe9 is not valid UTF-8 (invalid continuation byte)"
        )

    def test_byte_order_mark_alone_is_an_empty_file(self, tmp_path):
        path = tmp_path / "bom.csv"
        for data, message in [
            (b"\xef\xbb\xbf", "file is empty"),
            (b"\xef\xbb\xbf\n", "header must start with 'sample_id,label' followed by "
                               "logit_0.. or prob_0.. columns"),
        ]:
            path.write_bytes(data)
            with pytest.raises(ParseError) as err:
                read_logits_csv(path)
            assert str(err.value) == f"{path}:1: {message}"

    def test_a_file_with_a_bad_byte_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"sample_id,label,prob_0,prob_1\na,0,0.5,0.5\ncaf\xe9,1,0.5,0.5\n")
        opened = []
        real = builtins.open
        monkeypatch.setattr(builtins, "open", lambda *a, **kw: opened.append(a[0]) or real(*a, **kw))
        with pytest.raises(ParseError, match=":3: byte 0xe9"):
            read_logits_csv(path)
        assert opened == [path]

    @pytest.mark.parametrize("parse_rows", [1, 2, 3])
    def test_the_first_faulty_line_wins_at_every_block_size(
        self, tmp_path, monkeypatch, parse_rows
    ):
        # Line 2's label is out of range and line 3 holds a bad byte. The
        # row loop decodes each line as it reaches it, so line 2 is named
        # whether or not line 3 is in its block.
        path = tmp_path / "two.csv"
        path.write_bytes(b"sample_id,label,prob_0,prob_1\nb,7,0.5,0.5\n\xff,0,0.5,0.5\n")
        monkeypatch.setattr(io, "PARSE_BLOCK_CELLS", 2 * parse_rows)
        with pytest.raises(ParseError) as err:
            read_logits_csv(path)
        assert str(err.value) == f"{path}:2: label 7 out of range for 2 classes"
        # The header is read before the first block.
        path.write_bytes(b"sample_id,label,prob_0\n\xff,0,1.0\n")
        with pytest.raises(ParseError, match=":1: header must start"):
            read_logits_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 8), parse_rows=st.integers(1, 4), bom=st.booleans(),
        bad=st.sampled_from(sorted(_BAD_UTF8)), data=st.data(),
    )
    def test_a_bad_byte_names_its_physical_line(
        self, tmp_path_factory, n, parse_rows, bom, bad, data
    ):
        # A valid file whose rows include one quoted id spanning two
        # lines; one invalid sequence goes into the header, a plain id or
        # either line of the quoted id.
        quoted = data.draw(st.integers(0, n - 1))
        lines = [b"sample_id,label,prob_0,prob_1\n"]
        targets = {"header": [(0, 0)], "plain": [], "quoted": []}
        for i in range(n):
            if i == quoted:
                targets["quoted"] += [(len(lines), 2), (len(lines) + 1, 1)]
                lines += [b'"q%d\n' % i, b'r",%d,0.25,0.75\n' % (i % 2)]
            else:
                targets["plain"].append((len(lines), 1))
                lines.append(b"s%d,%d,0.5,0.5\n" % (i, i % 2))
        where = data.draw(st.sampled_from([t for t in targets.values() if t]))
        index, start = data.draw(st.sampled_from(where))
        at = data.draw(st.integers(start, start + 1))
        lines[index] = lines[index][:at] + bad + lines[index][at:]
        path = tmp_path_factory.mktemp("utf8") / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + b"".join(lines))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "PARSE_BLOCK_CELLS", 2 * parse_rows)
            with pytest.raises(ParseError) as err:
                read_logits_csv(path)
        assert str(err.value) == (
            f"{path}:{index + 1}: byte {bad[0]:#04x} is not valid UTF-8 ({_BAD_UTF8[bad]})"
        )

    def test_mixed_class_counts_are_no_batch(self):
        # A batch holds one (n, k) matrix, so no writer sees mixed rows.
        with pytest.raises(ValueError):
            sample_batch([("a", 0, [0.9, 0.1]), ("b", 1, [0.2, 0.3, 0.5])])

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                _TEXT,
                st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(any),
                st.integers(0, 2),
            ),
            min_size=1, max_size=12, unique_by=lambda row: row[0],
        ),
        condition=_TEXT,
        severity=st.integers(0, 5),
    )
    @example(rows=[("", [0.0, 0.0, 1.0], 0)], condition="\x00", severity=0)
    def test_round_trip_keeps_ids_labels_tags_and_probabilities(
        self, tmp_path_factory, rows, condition, severity
    ):
        batch_rows = [(sid, label, np.array(w) / sum(w)) for sid, w, label in rows]
        # A carriage return would reach the LF-terminated file unquoted.
        if "\r" in condition or any("\r" in sid for sid, _, _ in rows):
            with pytest.raises(ValueError, match="carriage return"):
                sample_batch(batch_rows, condition, severity)
            return
        samples = sample_batch(batch_rows, condition, severity)
        path = tmp_path_factory.mktemp("csv") / "samples.csv"
        write_samples_csv(samples, path)
        back = read_logits_csv(path, condition=condition, severity=severity)
        assert back.sample_id.tolist() == [sid for sid, _, _ in rows]
        assert back.label.tolist() == [label for _, _, label in rows]
        assert (back.condition, back.severity) == (condition, severity)
        assert np.max(np.abs(samples.probs - back.probs)) <= 1e-9


class TestThresholdsArtifact:
    def test_round_trip_exact(self, tmp_path):
        thr = thresholds()
        path = tmp_path / "thr.json"
        write_thresholds(thr, path)
        assert read_thresholds(path) == thr

    def test_format_version_is_written_last_not_settable(self, tmp_path):
        path = tmp_path / "thr.json"
        write_thresholds(thresholds(), path)
        assert path.read_text(encoding="utf-8") == (
            '{\n  "q_conf": 1.25,\n  "q_abs": 0.8,\n  "alpha": 0.1,\n'
            '  "n_calibration": 100,\n  "youden_j": 0.7,\n  "k_classes": 3,\n'
            '  "format_version": 2\n}\n'
        )
        with pytest.raises(TypeError, match="format_version"):
            thresholds(format_version=2)

    def test_infinity_sentinel_round_trip(self, tmp_path):
        thr = thresholds(q_conf=math.inf)
        path = tmp_path / "thr.json"
        write_thresholds(thr, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["q_conf"] == "inf"
        assert read_thresholds(path).q_conf == math.inf

    def test_tampered_alpha_rejected(self, tmp_path):
        path = tmp_path / "thr.json"
        write_thresholds(thresholds(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["alpha"] = 1.5
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ArtifactError, match="alpha"):
            read_thresholds(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "thr.json"
        write_thresholds(thresholds(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["format_version"] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ArtifactError, match="format_version"):
            read_thresholds(path)

    def test_missing_key_rejected(self, tmp_path):
        # No format_version: the key table names it with the others.
        path = tmp_path / "thr.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ArtifactError) as err:
            read_thresholds(path)
        assert str(err.value) == (
            f"{path}: thresholds is missing keys ['alpha', 'format_version', "
            "'k_classes', 'n_calibration', 'q_abs', 'q_conf', 'youden_j']"
        )

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(created_utc=""), "has unknown keys ['created_utc']"),
        (lambda doc: doc.pop("q_abs"), "is missing keys ['q_abs']"),
    ], ids=["unknown", "missing"])
    def test_a_format_2_file_names_its_key_fault(self, tmp_path, edit, message):
        path = tmp_path / "thr.json"
        write_thresholds(thresholds(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ArtifactError) as err:
            read_thresholds(path)
        assert str(err.value) == f"{path}: thresholds {message}"

    @pytest.mark.parametrize("key, message", [
        ("alpha", "alpha must be in (0, 1), got inf"),
        ("youden_j", "youden_j must be in [-1, 1], got inf"),
    ])
    def test_an_infinite_alpha_or_youden_j_is_refused(self, tmp_path, key, message):
        # Every float field is read as a real, so the invariant refuses it.
        path = tmp_path / "thr.json"
        write_thresholds(thresholds(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[key] = "inf"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ArtifactError) as err:
            read_thresholds(path)
        assert str(err.value) == f"{path}: {message}"

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "thr.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="JSON"):
            read_thresholds(path)

    @settings(max_examples=200, deadline=None)
    @given(
        q_conf=st.one_of(st.floats(0.0, 1e300), st.just(math.inf)),
        q_abs=st.sampled_from([math.inf, -math.inf]) | st.floats(allow_nan=False),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        n_calibration=st.integers(1, 10**12),
        youden_j=st.floats(-1.0, 1.0),
        k_classes=st.integers(2, 10**6),
    )
    def test_write_then_read_is_the_identity(self, tmp_path_factory, **fields):
        thr = CalibratedThresholds(**fields)
        path = tmp_path_factory.mktemp("thr") / "thr.json"
        write_thresholds(thr, path)
        back = read_thresholds(path)
        assert back == thr
        assert all(type(getattr(back, k)) is type(v) for k, v in fields.items())


@pytest.mark.parametrize("reader", [read_thresholds, read_manifest])
@pytest.mark.parametrize("text", ["[1, 2]", "[1]", "3", '"text"', "null"])
def test_non_object_json_rejected(tmp_path, reader, text):
    path = tmp_path / "artifact.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ArtifactError, match="must be a JSON object"):
        reader(path)


@pytest.mark.parametrize("reader", [read_thresholds, read_manifest])
def test_non_utf8_json_rejected_naming_the_file(tmp_path, reader):
    path = tmp_path / "artifact.json"
    path.write_bytes(b'{"condition": "caf\xe9"}')
    with pytest.raises(ArtifactError) as err:
        reader(path)
    assert str(err.value) == (
        f"{path}: byte 0xe9 at offset 18 is not valid UTF-8 (invalid continuation byte)"
    )


def _records(n=6):
    samples = sample_batch(
        ((f"s{i}", i % 2, [0.85, 0.15] if i % 3 else [0.45, 0.55]) for i in range(n)), "rain", 1
    )
    thr = thresholds(k_classes=2)
    return evaluate_samples(samples, thr)


class TestExports:
    def test_records_csv_schema_and_formatting(self, tmp_path):
        recs = _records()
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "sample_id,condition,severity,top1,covered,abstained,"
            "should_abstain,set_size,entropy,confidence,margin,score_top1"
        )
        assert len(lines) == len(recs) + 1
        cells = lines[1].split(",")
        assert cells[0] == "s0"
        assert cells[4] in ("0", "1")
        assert len(cells[8].split(".")[1]) == 6

    def test_summary_csv_and_json(self, tmp_path):
        summaries = [summarize(_records())]
        csv_path = tmp_path / "summary.csv"
        json_path = tmp_path / "summary.json"
        write_summary(summaries, csv_path, format="csv")
        write_summary(summaries, json_path, format="json")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "condition,severity,n,coverage,avg_set_size,avg_entropy,"
            "avg_confidence,avg_margin,abstention_rate,auc"
        )
        docs = json.loads(json_path.read_text(encoding="utf-8"))
        assert docs[0]["condition"] == "rain"
        assert docs[0]["n"] == 6

    def test_absent_auc_is_empty_cell_and_null(self, tmp_path):
        samples = sample_batch((f"s{i}", 0, [0.9, 0.1]) for i in range(3))
        recs = evaluate_samples(samples, thresholds(k_classes=2))
        summaries = [summarize(recs)]
        assert summaries[0].auc is None
        csv_path = tmp_path / "s.csv"
        json_path = tmp_path / "s.json"
        write_summary(summaries, csv_path, format="csv")
        write_summary(summaries, json_path, format="json")
        assert csv_path.read_text(encoding="utf-8").splitlines()[1].endswith(",")
        assert json.loads(json_path.read_text(encoding="utf-8"))[0]["auc"] is None

    def test_no_summaries_write_the_header_alone(self, tmp_path):
        write_summary([], tmp_path / "s.csv", format="csv")
        write_summary([], tmp_path / "s.json", format="json")
        write_heatmap([], tmp_path / "h.csv")
        assert (tmp_path / "s.csv").read_bytes() == (
            b"condition,severity,n,coverage,avg_set_size,avg_entropy,"
            b"avg_confidence,avg_margin,abstention_rate,auc\n"
        )
        assert (tmp_path / "s.json").read_bytes() == b"[]\n"
        assert (tmp_path / "h.csv").read_bytes() == b"metric,condition\n"

    def test_numpy_integer_severity_exports_to_json(self, tmp_path):
        samples = sample_batch([("a", 0, [0.9, 0.1])], "rain", np.int64(3))
        path = tmp_path / "s.json"
        write_summary([summarize(evaluate_samples(samples, thresholds(k_classes=2)))], path,
                      format="json")
        assert json.loads(path.read_text(encoding="utf-8"))[0]["severity"] == 3

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_summary([summarize(_records())], tmp_path / "x", format="xml")

    @pytest.mark.parametrize("export", [
        "records condition", "records id", "records id in a later block", "records id over a file",
        "summary", "heatmap",
    ])
    def test_carriage_return_cell_is_refused(self, tmp_path, monkeypatch, export):
        # A hand-built batch is not checked, so the writers refuse a cell
        # that LF-terminated CSV would leave bare, and the target is left
        # as it was, even when the cell is in a later block.
        ev = _records()
        path = tmp_path / "out.csv"
        if export == "records id over a file":
            path.write_bytes(b"kept\n")
        if export.startswith("records id"):
            ids = ev.sample_id.tolist()
            if export == "records id in a later block":
                monkeypatch.setattr(core, "BLOCK_CELLS", 1)  # blocks of one row
                ids[-1] = "a\rb"
            else:
                ids[0] = "a\rb"
            ev = dataclasses.replace(ev, sample_id=np.array(ids))
            bad, write = "a\rb", lambda: write_records_csv(ev, path)
        elif export.startswith("records"):
            ev = dataclasses.replace(ev, condition="fo\rg")
            bad, write = "fo\rg", lambda: write_records_csv(ev, path)
        else:
            summaries = [dataclasses.replace(summarize(ev), condition="fo\rg")]
            writer = write_summary if export == "summary" else write_heatmap
            bad, write = "fo\rg", lambda: writer(summaries, path)
        with pytest.raises(ValueError) as err:
            write()
        assert str(err.value) == f"CSV text cell {bad!r} holds a carriage return"
        if export == "records id over a file":
            assert path.read_bytes() == b"kept\n"
        else:
            assert not path.exists()

    def test_carriage_return_condition_is_escaped_in_json(self, tmp_path):
        summary = dataclasses.replace(summarize(_records()), condition="fo\rg")
        path = tmp_path / "s.json"
        write_summary([summary], path, format="json")
        assert "fo\\rg" in path.read_text(encoding="utf-8")
        assert json.loads(path.read_text(encoding="utf-8"))[0]["condition"] == "fo\rg"

    def test_roc_csv_row_count(self, tmp_path):
        scores = [0.1, 0.2, 0.2, 0.5, 0.9]
        flags = [False, False, True, True, True]
        curve = roc_points(scores, flags)
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "tau,fpr,tpr"
        assert len(lines) == 1 + len(set(scores)) + 2
        assert lines[1].startswith("inf,")
        assert lines[-1].startswith("-inf,")

    def test_writes_are_byte_stable(self, tmp_path):
        recs = _records()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(recs, a)
        write_records_csv(recs, b)
        assert a.read_bytes() == b.read_bytes()
        sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
        write_summary([summarize(recs)], sa, format="json")
        write_summary([summarize(recs)], sb, format="json")
        assert sa.read_bytes() == sb.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(_records(), path)
        assert b"\r" not in path.read_bytes()

    def test_one_hot_row_exports_positive_zero(self, tmp_path):
        samples = sample_batch([("a", 0, [1.0, 0.0, 0.0]), ("b", 1, [0.2, 0.5, 0.3])])
        path = tmp_path / "records.csv"
        write_records_csv(evaluate_samples(samples, thresholds()), path)
        rows = list(csv.DictReader(path.open(encoding="utf-8", newline="")))
        assert (rows[0]["entropy"], rows[0]["score_top1"]) == ("0.000000", "0.000000")
        assert "-0.000000" not in path.read_text(encoding="utf-8")

    def test_all_one_hot_summary_has_positive_zero_entropy(self, tmp_path):
        samples = sample_batch(
            (f"s{i}", i % 2, [1.0, 0.0] if i % 2 == 0 else [0.0, 1.0]) for i in range(4)
        )
        summaries = [summarize(evaluate_samples(samples, thresholds(k_classes=2)))]
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        write_summary(summaries, csv_path, format="csv")
        write_summary(summaries, json_path, format="json")
        row = next(csv.DictReader(csv_path.open(encoding="utf-8", newline="")))
        assert row["avg_entropy"] == "0.000000"
        assert math.copysign(1.0, json.loads(json_path.read_text())[0]["avg_entropy"]) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(summaries=_summaries)
    def test_summary_parses_back_at_six_decimals(self, tmp_path_factory, summaries):
        tmp = tmp_path_factory.mktemp("summary")
        write_summary(summaries, tmp / "s.csv", format="csv")
        write_summary(summaries, tmp / "s.json", format="json")
        with open(tmp / "s.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        docs = json.loads((tmp / "s.json").read_text(encoding="utf-8"))
        assert len(rows) == len(docs) == len(summaries)
        for s, row, doc in zip(summaries, rows, docs):
            expected = {
                name: value if name in ("condition", "severity", "n") or value is None
                else round(value, 6)
                for name, value in vars(s).items()
            }
            assert doc == expected
            assert list(row) == list(expected)
            assert (row["condition"], int(row["severity"]), int(row["n"])) == (
                s.condition, s.severity, s.n,
            )
            for name in list(expected)[3:]:
                cell = row[name]
                assert (None if cell == "" else float(cell)) == expected[name], name


# Each public writer, writing a small fixed document to a path.
_MANIFEST = DatasetManifest(2, (ManifestCondition("rain", "cal.csv", ((1, "s1.csv"),)),))
WRITERS = {
    "samples": lambda path: write_samples_csv(sample_batch([("a", 0, [0.9, 0.1])]), path),
    "records": lambda path: write_records_csv(_records(), path),
    "roc": lambda path: write_roc_csv(roc_points([0.1, 0.5, 0.9], [False, True, True]), path),
    "summary csv": lambda path: write_summary([summarize(_records())], path, format="csv"),
    "summary json": lambda path: write_summary([summarize(_records())], path, format="json"),
    "heatmap": lambda path: write_heatmap([summarize(_records())], path),
    "thresholds": lambda path: write_thresholds(thresholds(), path),
    "manifest": lambda path: write_manifest(_MANIFEST, path),
}


class SecondWriteFails:
    """A text file whose second write raises ENOSPC, as a full disk would;
    the first write is flushed, so it reaches the file."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, text):
        self._writes += 1
        if self._writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._fh.write(text)
        self._fh.flush()

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def fail_second_write(monkeypatch):
    """Make every file ``dualthresh.io`` opens fail on its second write."""
    monkeypatch.setattr(
        io, "open", lambda *a, **kw: SecondWriteFails(builtins.open(*a, **kw)), raising=False
    )


class TestOutputFiles:
    """Every output appears whole or not at all, with the file semantics of
    ``open(path, "w")``; a path naming an open descriptor is written through
    it, and any other target that is not a regular file in place."""

    @pytest.mark.parametrize("writer", WRITERS)
    def test_fifo_receives_the_bytes_of_a_regular_file(self, tmp_path, writer):
        WRITERS[writer](tmp_path / "regular")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        WRITERS[writer](fifo)
        reader.join(timeout=30)
        assert received == [(tmp_path / "regular").read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "regular"]

    @pytest.mark.parametrize("prefix", ["/dev/fd", "/proc/self/fd"])
    def test_a_descriptor_path_writes_through_the_descriptor(self, tmp_path, prefix):
        # The text lands at the descriptor's offset, in the file it has open.
        WRITERS["thresholds"](tmp_path / "regular")
        log = tmp_path / "log"
        with open(log, "w", encoding="utf-8") as fh:
            fh.write("before\n")
            fh.flush()
            inode = os.fstat(fh.fileno()).st_ino
            WRITERS["thresholds"](f"{prefix}/{fh.fileno()}")
            fh.write("after\n")
        assert log.read_bytes() == b"before\n" + (tmp_path / "regular").read_bytes() + b"after\n"
        assert os.stat(log).st_ino == inode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "regular"]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_dev_null_is_accepted(self, writer):
        WRITERS[writer](os.devnull)
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)

    def test_new_output_gets_the_mode_open_gives(self, tmp_path):
        old = os.umask(0o027)
        try:
            WRITERS["records"](tmp_path / "out.csv")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == 0o666 & ~0o027

    def test_replaced_output_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        path.chmod(0o604)
        os.link(path, tmp_path / "hard")
        WRITERS["records"](path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o604
        assert path.read_bytes().startswith(b"sample_id,")
        # The target is replaced, not rewritten: a hard link keeps the old bytes.
        assert (tmp_path / "hard").read_bytes() == b"old\n"

    def test_symlinked_output_stays_a_link(self, tmp_path):
        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "out.json"
        real.write_bytes(b"old\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        WRITERS["thresholds"](tmp_path / "expected.json")
        WRITERS["thresholds"](link)
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.json", "link.json", "real"]
        assert [p.name for p in real.parent.iterdir()] == ["out.json"]

    def test_unwritable_output_is_refused_exactly_as_open_refuses_it(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        path.chmod(0o444)
        if os.access(path, os.W_OK):  # as root: open would write it
            WRITERS["records"](path)
            assert path.read_bytes().startswith(b"sample_id,")
        else:
            with pytest.raises(PermissionError) as err:
                WRITERS["records"](path)
            assert str(err.value) == f"[Errno 13] Permission denied: '{path}'"
            assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_missing_directory_is_named_as_open_names_it(self, tmp_path):
        path = tmp_path / "absent" / "out.csv"
        with pytest.raises(FileNotFoundError) as err:
            WRITERS["records"](path)
        assert str(err.value) == f"[Errno 2] No such file or directory: '{path}'"

    @pytest.mark.parametrize("old", [b"old\n", None])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, monkeypatch, writer, old):
        path = tmp_path / "out"
        if old is not None:
            path.write_bytes(old)
        before = sorted(os.listdir(tmp_path))
        fail_second_write(monkeypatch)
        with pytest.raises(OSError, match="No space left on device"):
            WRITERS[writer](path)
        assert sorted(os.listdir(tmp_path)) == before
        if old is not None:
            assert path.read_bytes() == old

    def test_unserializable_json_leaves_the_target_as_it_was(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_bytes(b"old\n")
        summary = dataclasses.replace(summarize(_records()), condition="c", severity=0,
                                      n=np.int64(5))
        with pytest.raises(TypeError, match="int64"):
            write_summary([summary], path, format="json")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["summary.json"]


class TestManifest:
    def test_round_trip_and_relative_resolution(self, tmp_path):
        manifest = DatasetManifest(
            k_classes=4,
            conditions=(
                ManifestCondition("rain", "rain_cal.csv", ((3, "rain_s3.csv"), (1, "rain_s1.csv"))),
                ManifestCondition("fog", "fog_cal.csv", ((1, "fog_s1.csv"),)),
            ),
        )
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        # written in the order given: each calibration file, then its tests
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc) == ["format_version", "k_classes", "files"]
        assert doc["files"][:2] == [
            {"path": "rain_cal.csv", "condition": "rain", "severity": 0, "role": "calibration"},
            {"path": "rain_s3.csv", "condition": "rain", "severity": 3, "role": "test"},
        ]
        assert [(f["path"], f["role"]) for f in doc["files"][2:]] == [
            ("rain_s1.csv", "test"), ("fog_cal.csv", "calibration"), ("fog_s1.csv", "test"),
        ]
        # read back grouped: conditions and severities sorted, paths resolved
        back = read_manifest(path)
        assert back == DatasetManifest(4, (
            ManifestCondition("fog", str(tmp_path / "fog_cal.csv"),
                              ((1, str(tmp_path / "fog_s1.csv")),)),
            ManifestCondition("rain", str(tmp_path / "rain_cal.csv"),
                              ((1, str(tmp_path / "rain_s1.csv")),
                               (3, str(tmp_path / "rain_s3.csv")))),
        ))

    def test_role_defaults_to_test(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format_version": 1, "k_classes": 2, "files": [
            {"path": "c.csv", "condition": "rain", "severity": 0, "role": "calibration"},
            {"path": "t.csv", "condition": "rain", "severity": 0},
        ]}), encoding="utf-8")
        assert read_manifest(path).conditions[0].tests == ((0, str(tmp_path / "t.csv")),)

    def test_unknown_role_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "k_classes": 2,
                    "files": [
                        {"path": "x.csv", "condition": "rain", "severity": 0,
                         "role": "mystery"}
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ArtifactError, match="role"):
            read_manifest(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format_version": 5, "k_classes": 2, "files": []}),
                        encoding="utf-8")
        with pytest.raises(ArtifactError, match="format_version"):
            read_manifest(path)
