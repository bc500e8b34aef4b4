"""Tests of the benchmark itself: tracer arithmetic and robustness, the
independent output check, and traced against untraced passes.

Run with: PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] > b [1, 4] > c [2, 3]; a > d [5, 9]; e [11, 12] on its own
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, 7],
        ["c", 2.0, 3.0, 1, "x.csv"],
        ["d", 5.0, 9.0, 0, 5],
        ["e", 11.0, 12.0, -1, None],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracer.top_level_s(spans) == 11.0
    agg = tracer.aggregate(spans)
    assert agg["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0, "count": 0, "paths": []}
    assert agg["b"]["count"] == 7 and agg["c"]["paths"] == ["x.csv"]


def test_wrapped_calls_nest_and_record_notes():
    rec = tracer.Tracer()

    def inner(x):
        return [x] * x

    wrapped_inner = rec.wrap("inner", inner, tracer._length(tracer._result))

    def outer(n):
        return sum(len(wrapped_inner(i)) for i in range(1, n + 1))

    assert rec.wrap("outer", outer)(3) == 6
    spans = rec.spans()
    assert [s[0] for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0, 0]
    assert [s[4] for s in spans] == [None, 1, 2, 3]
    assert all(start <= end for _, start, end, _, _ in spans)
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(
        (spans[0][2] - spans[0][1]) - sum(e - s for _, s, e, _, _ in spans[1:])
    )


def test_missing_targets_are_reported_absent():
    rec = tracer.Tracer()
    absent = rec.install(
        (
            ("dualthresh.core", "no_such_function", None),
            ("dualthresh_no_such_module", "anything", None),
        )
    )
    assert absent == ["core.no_such_function", "dualthresh_no_such_module.anything"]
    assert rec.spans() == []


def _brute_q_abs(scores, flags):
    """Youden optimum over every candidate, exact, ties to the smallest tau."""
    best_j = best_tau = None
    for tau in [np.inf, *sorted(set(scores.tolist()), reverse=True), -np.inf]:
        flagged = scores > tau
        j = Fraction(int(flagged[flags].sum()), int(flags.sum())) - Fraction(
            int(flagged[~flags].sum()), int((~flags).sum())
        )
        if best_j is None or j >= best_j:
            best_j, best_tau = j, tau
    return best_tau


def _brute_auc(scores, flags):
    pos, neg = scores[flags], scores[~flags]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (pos.size * neg.size)


@pytest.mark.parametrize("seed", range(5))
def test_check_oracles_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, k = 60, 4
    labels = rng.integers(0, k, n)
    # Coarse values force tied scores.
    probs = rng.integers(1, 5, (n, k)).astype(float)
    probs /= probs.sum(axis=1, keepdims=True)
    scores = -np.log(probs[np.arange(n), labels])
    flags = probs.argmax(axis=1) != labels
    q_conf, q_abs = check.thresholds(labels, probs, alpha=0.2)
    assert q_conf == np.sort(scores)[int(np.ceil(0.8 * (n + 1))) - 1]
    assert q_abs == _brute_q_abs(scores, flags)
    assert check.mann_whitney_auc(scores, flags) == pytest.approx(_brute_auc(scores, flags))


@pytest.fixture
def small_workloads(monkeypatch):
    """The real workloads at a size that runs in seconds."""
    for name, value in {
        "SWEEP_CONDITIONS": ("rain",),
        "SWEEP_SEVERITIES": (0, 3),
        "SWEEP_N_TEST": 200,
        "SWEEP_N_CAL": 100,
        "WIDE_CONDITIONS": ("haze",),
        "WIDE_SEVERITIES": (0, 2),
        "WIDE_N": 200,
        "TALL_N_CAL": 300,
        "TALL_N_TEST": 500,
    }.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_pass(small_workloads, tmp_path, name):
    inputs, out, logs = tmp_path / "inputs", tmp_path / "out", tmp_path / "logs"
    inputs.mkdir()
    logs.mkdir()
    plan = workloads.WORKLOADS[name](inputs, out, 7)

    plain = run.run_pass(plan, out, logs, traced=False)
    assert plain["errors"] == []  # includes "the tracer was not loaded"
    assert plan.check(out) == []
    digests = check.digests(out)

    traced = run.run_pass(plan, out, logs, traced=True)
    assert traced["errors"] == [] and traced["absent"] == []
    assert check.digests(out) == digests
    layers = traced["layers"]
    assert layers["prediction.evaluate_rows"] == plan.test_rows
    assert layers["core.validate_calls"] == plan.inputs["rows"] * (2 if name == "sweep_default" else 1)
    assert layers["metrics.roc_per_group"] == (1.0 if name == "cal_eval_tall" else 2.0)


def test_check_rejects_a_wrong_summary(small_workloads, tmp_path):
    inputs, out, logs = tmp_path / "inputs", tmp_path / "out", tmp_path / "logs"
    inputs.mkdir()
    logs.mkdir()
    plan = workloads.WORKLOADS["cal_eval_tall"](inputs, out, 3)
    assert run.run_pass(plan, out, logs, traced=False)["errors"] == []
    summary = out / "summary.csv"
    header, row = summary.read_text().splitlines()
    cells = row.split(",")
    cells[3] = f"{float(cells[3]) + 0.01:.6f}"  # coverage
    summary.write_text(header + "\n" + ",".join(cells) + "\n")
    assert any("coverage" in e for e in plan.check(out))


def test_masked_digest_ignores_created_utc(tmp_path):
    doc = {"q_conf": 1.0, "created_utc": "2024-01-01T00:00:00+00:00"}
    (tmp_path / "thresholds.json").write_text(json.dumps(doc, indent=2))
    first = check.digests(tmp_path)
    doc["created_utc"] = "2025-06-30T12:34:56+00:00"
    (tmp_path / "thresholds.json").write_text(json.dumps(doc, indent=2))
    assert check.digests(tmp_path) == first


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
