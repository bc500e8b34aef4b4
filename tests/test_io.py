import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualthresh.calibration import CalibratedThresholds, calibrate, roc_points
from dualthresh.core import LabeledSample
from dualthresh.datagen import GeneratorConfig, generate_dataset
from dualthresh.io import (
    ArtifactError,
    DatasetManifest,
    ManifestEntry,
    ParseError,
    read_logits_csv,
    read_manifest,
    read_thresholds,
    write_manifest,
    write_records_csv,
    write_roc_csv,
    write_samples_csv,
    write_summary,
    write_thresholds,
)
from dualthresh.metrics import EvaluationSummary, summarize
from dualthresh.prediction import Evaluations, evaluate_samples


# Text with the characters CSV quoting must handle. Left out: lone
# surrogates, which UTF-8 cannot encode.
_TEXT = st.text(
    st.one_of(
        st.sampled_from(',"\n\r \'\ufeff'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
)
# Conditions holding a carriage return are rejected where they enter.
_CONDITION = _TEXT.filter(lambda text: "\r" not in text)


# Reference writers: the csv.writer-based bodies that the one-format-per-row
# writers replaced. The new writers must write exactly their bytes.
def csv_writer_samples(samples, path):
    k = samples[0].k_classes
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label"] + [f"prob_{j}" for j in range(k)])
        for smp in samples:
            writer.writerow([smp.sample_id, smp.label] + [f"{v:.9g}" for v in smp.probs])


def csv_writer_records(ev, path):
    def fixed6(values):
        return [f"{v:.6f}" for v in values.tolist()]

    columns = (
        ("sample_id", ev.sample_id.tolist()),
        ("condition", ev.condition.tolist()),
        ("severity", ev.severity.tolist()),
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


# Floats whose text is easy to get wrong: signed zero, the smallest
# subnormal, and values that %.9g writes in exponent form.
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-12, 3.5e-5, 2.5e-7, 1e-100])


@st.composite
def _sample_batches(draw):
    """Valid samples sharing one class count; one entry of each row is 1
    minus the others, so rows of tiny entries hold 1.0."""
    k = draw(st.integers(2, 5))
    entry = _EDGE_FLOATS | st.floats(0.0, 1.0 / k)
    samples = []
    for _ in range(draw(st.integers(1, 10))):
        probs = draw(st.lists(entry, min_size=k - 1, max_size=k - 1))
        probs.insert(draw(st.integers(0, k - 1)), 1.0 - math.fsum(probs))
        samples.append(LabeledSample(draw(_TEXT), draw(st.integers(0, k - 1)), probs))
    return samples


@st.composite
def _evaluations(draw):
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 4))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    real = _EDGE_FLOATS | st.sampled_from([1.0, 0.5e-6, -2.5e-7, 1e300]) | st.floats()
    return Evaluations(
        sample_id=column(_TEXT, object),
        label=column(st.integers(0, k - 1), np.int64),
        condition=column(_TEXT, object),
        severity=column(st.integers(0, 5), np.int64),
        in_set=column(st.lists(st.booleans(), min_size=k, max_size=k), bool),
        covered=column(st.booleans(), bool),
        abstained=column(st.booleans(), bool),
        should_abstain=column(st.booleans(), bool),
        top1=column(st.integers(0, k - 1), np.int64),
        score_top1=column(real, np.float64),
        entropy=column(real, np.float64),
        confidence=column(real, np.float64),
        margin=column(real, np.float64),
    )


class TestWritersMatchCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(samples=_sample_batches())
    def test_samples_csv_bytes(self, tmp_path_factory, samples):
        tmp = tmp_path_factory.mktemp("samples")
        write_samples_csv(samples, tmp / "new.csv")
        csv_writer_samples(samples, tmp / "old.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(ev=_evaluations())
    def test_records_csv_bytes(self, tmp_path_factory, ev):
        tmp = tmp_path_factory.mktemp("records")
        write_records_csv(ev, tmp / "new.csv")
        csv_writer_records(ev, tmp / "old.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def thresholds(**overrides):
    base = dict(
        q_conf=1.25, q_abs=0.8, alpha=0.1, n_calibration=100,
        youden_j=0.7, k_classes=3, created_utc="2026-01-02T03:04:05+00:00",
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
        for a, b in zip(samples, back):
            assert a.sample_id == b.sample_id
            assert a.label == b.label
            assert a.condition == b.condition and a.severity == b.severity
            assert np.max(np.abs(a.probs - b.probs)) < 1e-9

    def test_logit_rows_pass_through_softmax(self, tmp_path):
        path = tmp_path / "logits.csv"
        path.write_text(
            "sample_id,label,logit_0,logit_1\n"
            f"a,0,{math.log(4)},0.0\n"
            "b,1,1000.0,1000.0\n",
            encoding="utf-8",
        )
        samples = read_logits_csv(path)
        assert samples[0].probs == pytest.approx([0.8, 0.2], abs=1e-12)
        assert samples[1].probs == pytest.approx([0.5, 0.5], abs=1e-12)

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
        assert [smp.sample_id for smp in read_logits_csv(path)] == ["a", "b"]

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

    def test_mixed_class_counts_rejected_before_writing(self, tmp_path):
        samples = [LabeledSample("a", 0, [0.9, 0.1]), LabeledSample("b", 1, [0.2, 0.3, 0.5])]
        path = tmp_path / "mixed.csv"
        with pytest.raises(ValueError) as err:
            write_samples_csv(samples, path)
        assert str(err.value) == "sample 'b' has 3 classes, expected 2"
        assert not path.exists()

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
    def test_round_trip_keeps_ids_labels_tags_and_probabilities(
        self, tmp_path_factory, rows, condition, severity
    ):
        samples = [
            LabeledSample(sid, label, np.array(w) / sum(w), condition, severity)
            for sid, w, label in rows
        ]
        path = tmp_path_factory.mktemp("csv") / "samples.csv"
        write_samples_csv(samples, path)
        if any("\r" in smp.sample_id for smp in samples):
            with pytest.raises(ParseError, match="carriage return"):
                read_logits_csv(path, condition=condition, severity=severity)
            return
        back = read_logits_csv(path, condition=condition, severity=severity)
        assert [(b.sample_id, b.label, b.condition, b.severity) for b in back] == [
            (a.sample_id, a.label, condition, severity) for a in samples
        ]
        for a, b in zip(samples, back):
            assert np.max(np.abs(a.probs - b.probs)) <= 1e-9


class TestThresholdsArtifact:
    def test_round_trip_exact(self, tmp_path):
        thr = thresholds()
        path = tmp_path / "thr.json"
        write_thresholds(thr, path)
        assert read_thresholds(path) == thr

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
        path = tmp_path / "thr.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ArtifactError, match="missing"):
            read_thresholds(path)

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
        created_utc=st.text(),
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


def _records(n=6):
    samples = [
        LabeledSample(f"s{i}", i % 2, [0.85, 0.15] if i % 3 else [0.45, 0.55],
                      condition="rain", severity=1)
        for i in range(n)
    ]
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
        summaries = summarize(_records())
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
        samples = [LabeledSample(f"s{i}", 0, [0.9, 0.1]) for i in range(3)]
        recs = evaluate_samples(samples, thresholds(k_classes=2))
        summaries = summarize(recs)
        assert summaries[0].auc is None
        csv_path = tmp_path / "s.csv"
        json_path = tmp_path / "s.json"
        write_summary(summaries, csv_path, format="csv")
        write_summary(summaries, json_path, format="json")
        assert csv_path.read_text(encoding="utf-8").splitlines()[1].endswith(",")
        assert json.loads(json_path.read_text(encoding="utf-8"))[0]["auc"] is None

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_summary(summarize(_records()), tmp_path / "x", format="xml")

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
        write_summary(summarize(recs), sa, format="json")
        write_summary(summarize(recs), sb, format="json")
        assert sa.read_bytes() == sb.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(_records(), path)
        assert b"\r" not in path.read_bytes()

    def test_one_hot_row_exports_positive_zero(self, tmp_path):
        samples = [LabeledSample("a", 0, [1.0, 0.0, 0.0]),
                   LabeledSample("b", 1, [0.2, 0.5, 0.3])]
        path = tmp_path / "records.csv"
        write_records_csv(evaluate_samples(samples, thresholds()), path)
        rows = list(csv.DictReader(path.open(encoding="utf-8", newline="")))
        assert (rows[0]["entropy"], rows[0]["score_top1"]) == ("0.000000", "0.000000")
        assert "-0.000000" not in path.read_text(encoding="utf-8")

    def test_all_one_hot_summary_has_positive_zero_entropy(self, tmp_path):
        samples = [LabeledSample(f"s{i}", i % 2, [1.0, 0.0] if i % 2 == 0 else [0.0, 1.0])
                   for i in range(4)]
        summaries = summarize(evaluate_samples(samples, thresholds(k_classes=2)))
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        write_summary(summaries, csv_path, format="csv")
        write_summary(summaries, json_path, format="json")
        row = next(csv.DictReader(csv_path.open(encoding="utf-8", newline="")))
        assert row["avg_entropy"] == "0.000000"
        assert math.copysign(1.0, json.loads(json_path.read_text())[0]["avg_entropy"]) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        summaries=st.lists(
            st.builds(
                EvaluationSummary,
                condition=_CONDITION,
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
    )
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


class TestManifest:
    def test_round_trip_and_relative_resolution(self, tmp_path):
        manifest = DatasetManifest(
            k_classes=4,
            files=(
                ManifestEntry("rain_cal.csv", "rain", 0, "calibration"),
                ManifestEntry("rain_s1.csv", "rain", 1, "test"),
            ),
        )
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        back = read_manifest(path)
        assert back.k_classes == 4
        assert back.files[0].path == str(tmp_path / "rain_cal.csv")
        assert back.files[0].role == "calibration"
        assert back.files[1].severity == 1

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
