import json
import math

import numpy as np
import pytest

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
from dualthresh.metrics import summarize
from dualthresh.prediction import evaluate_samples


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
