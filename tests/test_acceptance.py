"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities (run with ``pytest -v -s`` to see
them inline)."""

import csv
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from dualthresh.calibration import (
    abstention_threshold,
    calibrate,
    conformal_threshold,
    roc_points,
)
from dualthresh.cli import main
from dualthresh.datagen import GeneratorConfig, derive_seed, exchangeable_split, generate_dataset
from dualthresh.prediction import evaluate_samples

from .test_calibration import mann_whitney, oracle_quantile, youden_sweep
from .test_metrics import batches_by_class_count
from .test_prediction import evaluations_from

BASE_SEED = 20260809


def ok(line: str) -> None:
    print(f"PASS {line}")


@pytest.fixture(scope="module")
def default_sweep_dir(tmp_path_factory):
    """One run of the default sweep, shared by the criteria that read it."""
    root = tmp_path_factory.mktemp("default_sweep")
    cfg = root / "cfg.json"
    cfg.write_text("{}", encoding="utf-8")
    out = root / "out"
    assert main(["sweep", str(cfg), "--out-dir", str(out)]) == 0
    return root


def test_criterion_1_coverage_guarantee():
    """Mean empirical coverage over 200 exchangeable trials sits in the
    finite-sample band [1 - alpha, 1 - alpha + 1/(n+1)], i.e. [0.90, 0.912]
    for n_cal = 500, with per-trial spread matching order-statistic plus
    binomial noise, in under 10 seconds."""
    n_cal, n_test, alpha, trials = 500, 500, 0.1, 200
    started = time.perf_counter()
    coverages = []
    for trial in range(trials):
        cfg = GeneratorConfig(
            k_classes=10, n_samples=n_cal + n_test, base_accuracy=0.9,
            severity=0, seed=derive_seed(BASE_SEED, "coverage", trial),
        )
        samples = generate_dataset(cfg)
        cal, test = exchangeable_split(
            samples, n_cal, seed=derive_seed(BASE_SEED, "split", trial)
        )
        thresholds = calibrate(cal, alpha)
        coverages.append(evaluate_samples(test, thresholds).covered.mean())
    elapsed = time.perf_counter() - started

    coverages = np.asarray(coverages)
    mean = float(coverages.mean())
    sd = float(coverages.std(ddof=1))

    # coverage given the threshold is Beta(k, n-k+1) distributed; add the
    # binomial test-set noise on top for the predicted per-trial sd
    k = math.ceil((n_cal + 1) * (1 - alpha))
    a, b = k, n_cal - k + 1
    beta_mean = a / (a + b)
    beta_var = a * b / ((a + b) ** 2 * (a + b + 1))
    binom_var = (beta_mean - beta_var - beta_mean**2) / n_test
    predicted_sd = math.sqrt(beta_var + binom_var)

    assert 0.90 <= mean <= 0.912, f"mean coverage {mean:.5f} outside [0.90, 0.912]"
    assert abs(sd - predicted_sd) <= 0.35 * predicted_sd, (
        f"per-trial sd {sd:.5f} inconsistent with predicted {predicted_sd:.5f}"
    )
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    ok(
        f"criterion 1: mean coverage {mean:.5f} in [0.90, 0.912], "
        f"sd {sd:.5f} ~ predicted {predicted_sd:.5f}, {elapsed:.1f}s"
    )


def test_criterion_2_quantile_oracle_equivalence():
    """conformal_threshold equals the sort-and-index oracle exactly on
    1,000 randomized instances."""
    rng = np.random.default_rng(derive_seed(BASE_SEED, "quantile"))
    alphas = [0.01, 0.05, 0.1, 0.25, 0.5]
    for i in range(1000):
        n = int(rng.integers(1, 501))
        scores = rng.exponential(size=n)
        if i % 3 == 0:  # exercise heavy ties
            scores = np.round(scores, 1)
        alpha = float(rng.choice(alphas))
        got = conformal_threshold(scores, alpha)
        want = oracle_quantile(scores, alpha)
        assert got == want, f"instance {i}: {got} != oracle {want}"
    ok("criterion 2: 1000/1000 instances equal the order-statistic oracle exactly")


def test_criterion_3_auc_oracle_equivalence():
    """Trapezoidal AUC equals the Mann-Whitney pairwise statistic within
    1e-9 on 500 random instances of up to 20 scores, ties included."""
    rng = np.random.default_rng(derive_seed(BASE_SEED, "auc"))
    worst = 0.0
    for i in range(500):
        n = int(rng.integers(2, 21))
        if i % 2 == 0:  # coarse grid forces ties
            scores = rng.choice(np.linspace(0.0, 1.0, 6), size=n)
        else:
            scores = rng.normal(size=n)
        flags = rng.random(n) < float(rng.uniform(0.2, 0.8))
        if flags.all() or not flags.any():
            flags[0] = not flags[0]
        auc = roc_points(scores, flags).auc
        oracle = mann_whitney(list(scores), list(flags))
        worst = max(worst, abs(auc - oracle))
        assert abs(auc - oracle) < 1e-9, f"instance {i}: |{auc} - {oracle}|"
    ok(f"criterion 3: trapezoid == Mann-Whitney on 500 instances (max dev {worst:.2e})")


def test_criterion_4_abstention_threshold_optimality():
    """The returned threshold attains the brute-force maximum of TPR - FPR
    on 500 random instances; ties resolve to the smallest threshold."""
    rng = np.random.default_rng(derive_seed(BASE_SEED, "youden"))
    for i in range(500):
        n = int(rng.integers(2, 30))
        scores = rng.choice(np.linspace(0.0, 1.0, 9), size=n)
        flags = rng.random(n) < 0.4
        if flags.all() or not flags.any():
            flags[0] = not flags[0]
        q_abs, j = abstention_threshold(roc_points(scores, flags))
        sweep = youden_sweep(list(scores), list(flags))
        best = max(v for _, v in sweep)
        assert j >= best - 1e-12, f"instance {i}: J {j} < brute-force {best}"
        for tau, v in sweep:
            if tau < q_abs:
                assert v < j - 1e-9, f"instance {i}: tie at smaller tau {tau}"

    # constructed exact ties: candidates 0.75 and 0.25 both reach J = 0.5
    q_abs, j = abstention_threshold(
        roc_points([0.9, 0.75, 0.5, 0.25], [True, False, True, False])
    )
    assert (q_abs, j) == (0.25, 0.5)
    q_abs, _ = abstention_threshold(
        roc_points([0.9, 0.5, 0.5, 0.1], [True, True, False, False])
    )
    assert q_abs == 0.1
    ok("criterion 4: brute-force optimality on 500 instances, ties break low")


def test_criterion_5_metric_exactness():
    """Entropy hits its endpoints exactly; margin never exceeds confidence;
    entropy stays inside [0, 1] on 10,000 random vectors, evaluated in one
    batch per class count."""
    for k in (2, 5, 100):
        one_hot = [0.0] * k
        one_hot[k // 2] = 1.0
        uniform_h, one_hot_h = evaluations_from([([1.0 / k] * k, 0), (one_hot, 0)]).entropy
        assert abs(uniform_h - 1.0) < 1e-12
        assert abs(one_hot_h) < 1e-12
    rng = np.random.default_rng(derive_seed(BASE_SEED, "metrics"))
    rows = []
    for _ in range(10_000):
        k = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(k) * rng.uniform(0.1, 5.0))
        rows.append(p / p.sum())
    for batch in batches_by_class_count(rows):
        ev = evaluations_from([(p, 0) for p in batch])
        assert ((0.0 <= ev.entropy) & (ev.entropy <= 1.0)).all()
        assert (ev.margin <= ev.confidence + 1e-15).all()
    ok("criterion 5: entropy endpoints exact at 1e-12; margin <= confidence on 10k vectors")


def test_criterion_6_severity_trends(default_sweep_dir):
    """Under the default sweep, abstention and entropy never decrease with
    severity, confidence and margin never increase, and abstention at the
    heaviest severity exceeds severity 1 by at least 25 points."""
    summary = default_sweep_dir / "out" / "summary.csv"
    rows = list(csv.DictReader(open(summary, encoding="utf-8")))
    by_condition = defaultdict(dict)
    for row in rows:
        by_condition[row["condition"]][int(row["severity"])] = row
    assert sorted(by_condition) == ["fog", "motion_blur", "rain", "snow"]

    min_gap = 1.0
    for condition, cells in by_condition.items():
        sevs = sorted(cells)
        assert sevs == [0, 1, 2, 3, 4, 5]

        def series(name):
            return [float(cells[s][name]) for s in sevs]

        abst = series("abstention_rate")
        for name, vals, direction in [
            ("abstention_rate", abst, +1),
            ("avg_entropy", series("avg_entropy"), +1),
            ("avg_confidence", series("avg_confidence"), -1),
            ("avg_margin", series("avg_margin"), -1),
        ]:
            deltas = [direction * (b - a) for a, b in zip(vals, vals[1:])]
            assert all(d >= 0 for d in deltas), (
                f"{condition}/{name} not monotone: {vals}"
            )
        gap = abst[-1] - abst[1]
        min_gap = min(min_gap, gap)
        assert gap >= 0.25, f"{condition}: abstention gap {gap:.3f} < 0.25"
    ok(f"criterion 6: monotone trends for all 4 conditions; min s5-s1 gap {min_gap:.3f}")


def test_criterion_7_external_logits_ingestion(tmp_path):
    """Paper-scale absolute numbers require trained models on real
    corrupted datasets and are out of desk-scale reach; what the pipeline
    guarantees instead is that any externally produced logits CSV flows
    through calibration, evaluation, and the table/figure exports."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    assert "not reproducible" in text, "README must state the non-reproducibility caveat"

    # stand-in for an external model dump: raw logit rows, K = 4
    rng = np.random.default_rng(derive_seed(BASE_SEED, "external"))
    def dump(path, n):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sample_id,label,logit_0,logit_1,logit_2,logit_3\n")
            for i in range(n):
                label = int(rng.integers(0, 4))
                logits = rng.normal(size=4) * 1.5
                if rng.random() < 0.75:
                    logits[label] += 2.5
                cells = ",".join(f"{v:.6f}" for v in logits)
                fh.write(f"ext-{i},{label},{cells}\n")

    cal_csv, test_csv = tmp_path / "cal.csv", tmp_path / "test.csv"
    dump(cal_csv, 300)
    dump(test_csv, 200)
    thr = tmp_path / "thr.json"
    assert main(["calibrate", "--cal", str(cal_csv), "--alpha", "0.1",
                 "--out", str(thr)]) == 0
    rec, summ = tmp_path / "rec.csv", tmp_path / "sum.json"
    assert main(["evaluate", "--test", str(test_csv), "--thresholds", str(thr),
                 "--records-out", str(rec), "--summary-out", str(summ),
                 "--condition", "external", "--severity", "0"]) == 0
    docs = json.loads(summ.read_text(encoding="utf-8"))
    assert docs[0]["n"] == 200
    assert docs[0]["auc"] is not None
    assert len(rec.read_text(encoding="utf-8").splitlines()) == 201
    ok(
        "criterion 7: paper-scale values documented as not reproducible; "
        "external logits CSV ran the full pipeline "
        f"(coverage {docs[0]['coverage']:.3f}, auc {docs[0]['auc']:.3f})"
    )


def test_criterion_8_sweep_determinism(default_sweep_dir):
    """A second run of the default sweep reproduces every output file
    byte for byte."""
    cfg = default_sweep_dir / "cfg.json"
    rerun = default_sweep_dir / "rerun"
    assert main(["sweep", str(cfg), "--out-dir", str(rerun)]) == 0
    first = default_sweep_dir / "out"
    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    rerun_files = sorted(p.relative_to(rerun) for p in rerun.rglob("*") if p.is_file())
    assert first_files == rerun_files
    for rel in first_files:
        assert (first / rel).read_bytes() == (rerun / rel).read_bytes(), rel
    ok(f"criterion 8: {len(first_files)} sweep output files byte-identical across runs")


def test_criterion_9_degenerate_calibration_exits_3(tmp_path, capsys):
    """An all-correct calibration set must fail loudly with exit code 3
    and an actionable message, never silent NaN thresholds."""
    cal = tmp_path / "all_correct.csv"
    cal.write_text(
        "sample_id,label,prob_0,prob_1\n"
        + "".join(f"s{i},0,0.97,0.03\n" for i in range(20)),
        encoding="utf-8",
    )
    code = main(["calibrate", "--cal", str(cal), "--alpha", "0.1",
                 "--out", str(tmp_path / "thr.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")
    assert "correct and incorrect" in err
    assert not (tmp_path / "thr.json").exists()
    ok("criterion 9: all-correct calibration exits 3 with actionable guidance")
