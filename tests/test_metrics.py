import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualthresh.calibration import CalibratedThresholds
from dualthresh.core import DegenerateLabelsError
from dualthresh.metrics import EvaluationSummary, detection_auc, summarize
from dualthresh.prediction import evaluate_samples

from .test_calibration import mann_whitney
from .test_prediction import dirichlet_samples, evaluations_from, sample_batch, traced_peak


def batches_by_class_count(rows):
    """Group probability rows by class count, keeping the order of each
    group, so every group is one evaluation batch."""
    groups = {}
    for p in rows:
        groups.setdefault(len(p), []).append(p)
    return groups.values()


class TestPerSampleMetrics:
    def test_entropy_uniform_is_one(self):
        assert evaluations_from([([0.5, 0.5], 0)]).entropy[0] == pytest.approx(1.0, abs=1e-12)
        assert evaluations_from([([0.25] * 4, 0)]).entropy[0] == pytest.approx(1.0, abs=1e-12)

    def test_entropy_one_hot_is_zero(self):
        assert evaluations_from([([1.0, 0.0, 0.0], 0)]).entropy[0] == 0.0

    def test_entropy_hand_value(self):
        # oracle: -(0.7 ln 0.7 + 3 * 0.1 ln 0.1) / ln 4
        expected = -(0.7 * math.log(0.7) + 0.3 * math.log(0.1)) / math.log(4)
        assert expected == pytest.approx(0.6783898247235198, abs=1e-12)
        h = evaluations_from([([0.7, 0.1, 0.1, 0.1], 0)]).entropy[0]
        assert h == pytest.approx(expected, abs=1e-12)

    def test_entropy_bounds_and_extremes(self):
        rng = np.random.default_rng(2)
        rows = []
        for _ in range(2000):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 5.0))
            rows.append(p / p.sum())
        for batch in batches_by_class_count(rows):
            h = evaluations_from([(p, 0) for p in batch]).entropy
            assert ((0.0 <= h) & (h <= 1.0)).all()
        assert evaluations_from([([1.0 / 3] * 3, 0)]).entropy[0] == pytest.approx(1.0, abs=1e-9)

    def test_confidence_examples(self):
        assert evaluations_from([([0.6, 0.3, 0.1], 0)]).confidence[0] == 0.6
        assert evaluations_from([([0.0, 1.0], 0)]).confidence[0] == 1.0
        assert evaluations_from([([0.2] * 5, 0)]).confidence[0] == 0.2

    def test_margin_examples(self):
        assert evaluations_from([([0.6, 0.3, 0.1], 0)]).margin[0] == pytest.approx(0.3, abs=1e-15)
        assert evaluations_from([([0.0, 1.0], 0)]).margin[0] == 1.0
        assert evaluations_from([([0.25] * 4, 0)]).margin[0] == 0.0

    def test_margin_bounded_by_confidence_and_permutation_invariant(self):
        rng = np.random.default_rng(4)
        rows = []
        for _ in range(2000):
            k = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(k))
            rows.append(p / p.sum())
        for batch in batches_by_class_count(rows):
            ev = evaluations_from([(p, 0) for p in batch])
            permuted = evaluations_from([(rng.permutation(p), 0) for p in batch])
            assert (ev.margin <= ev.confidence + 1e-15).all()
            np.testing.assert_allclose(permuted.margin, ev.margin, rtol=0, atol=1e-15)
            assert np.array_equal(permuted.confidence, ev.confidence)


class TestAggregates:
    def test_coverage_counting(self):
        ev = evaluations_from(
            [([0.9, 0.1], 0)] * 9 + [([0.9, 0.1], 1)], q_conf=0.3
        )
        assert ev.covered.mean() == pytest.approx(0.9)
        assert summarize(ev)[0].coverage == pytest.approx(0.9)

    def test_coverage_one_under_sentinel(self):
        ev = evaluations_from([([0.6, 0.4], 1), ([0.1, 0.9], 0)], q_conf=math.inf)
        assert summarize(ev)[0].coverage == 1.0

    def test_average_set_size(self):
        # sizes 1, 1, 2 under q_conf = ln 2
        ev = evaluations_from(
            [([0.9, 0.1], 0), ([0.8, 0.2], 0), ([0.5, 0.5], 0)],
            q_conf=math.log(2),
        )
        assert ev.set_size.tolist() == [1, 1, 2]
        assert summarize(ev)[0].avg_set_size == pytest.approx(4.0 / 3.0)

    def test_abstention_counting(self):
        ev = evaluations_from(
            [([0.9, 0.1], 0)] * 6 + [([0.5, 0.5], 0)] * 2, q_abs=0.2
        )
        assert summarize(ev)[0].abstention_rate == pytest.approx(0.25)

    def test_one_hot_never_abstains_at_zero_threshold(self):
        ev = evaluations_from([([1.0, 0.0], 0)] * 4, q_abs=0.0)
        assert summarize(ev)[0].abstention_rate == 0.0

    def test_empty_inputs_rejected(self):
        empty = evaluations_from([([0.9, 0.1], 0)]).take(np.zeros(1, dtype=bool))
        assert len(empty) == 0
        for fn in (summarize, detection_auc):
            with pytest.raises(ValueError, match="non-empty"):
                fn(empty)

    def test_detection_auc_perfect(self):
        ev = evaluations_from(
            [([0.95, 0.05], 0)] * 3 + [([0.55, 0.45], 1)] * 3
        )
        assert detection_auc(ev).auc == 1.0

    def test_detection_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(4, 21))
            pl = []
            for _ in range(n):
                p0 = float(rng.choice([0.5, 0.6, 0.7, 0.85, 0.95]))
                label = int(rng.integers(0, 2))
                pl.append(([p0, 1.0 - p0], label))
            ev = evaluations_from(pl)
            flags = ev.should_abstain.tolist()
            if all(flags) or not any(flags):
                continue
            auc = detection_auc(ev).auc
            scores = ev.score_top1.tolist()
            assert auc == pytest.approx(mann_whitney(scores, flags), abs=1e-9)

    def test_detection_auc_degenerate(self):
        ev = evaluations_from([([0.9, 0.1], 0)] * 3)
        with pytest.raises(DegenerateLabelsError):
            detection_auc(ev)


def _grid_evaluations():
    samples = sample_batch(
        (f"{condition}-{severity}-{i}", label, probs, condition, severity)
        for condition in ("fog", "rain")
        for severity in (0, 1)
        for i, (probs, label) in enumerate([([0.9, 0.1], 0), ([0.55, 0.45], 1)])
    )
    thr = CalibratedThresholds(
        q_conf=1.0, q_abs=0.7, alpha=0.1, n_calibration=10, youden_j=0.5, k_classes=2,
    )
    return evaluate_samples(samples, thr)


class TestSummarize:
    def test_groups_sorted_and_counted(self):
        ev = _grid_evaluations()
        out = summarize(ev)
        assert [(s.condition, s.severity) for s in out] == [
            ("fog", 0), ("fog", 1), ("rain", 0), ("rain", 1),
        ]
        assert sum(s.n for s in out) == len(ev)

    def test_order_independence(self):
        ev = _grid_evaluations()
        rng = np.random.default_rng(9)
        assert summarize(ev) == summarize(ev.take(rng.permutation(len(ev))))

    def test_single_group_direct_means(self):
        ev = evaluations_from(
            [([0.9, 0.1], 0), ([0.55, 0.45], 1)], q_conf=0.3, q_abs=0.2
        )
        (s,) = summarize(ev)
        assert s.n == 2
        assert s.coverage == pytest.approx(0.5)
        assert s.avg_confidence == pytest.approx((0.9 + 0.55) / 2)
        assert s.avg_margin == pytest.approx((0.8 + 0.1) / 2)
        assert s.abstention_rate == pytest.approx(0.5)
        assert s.auc == 1.0

    def test_single_flag_class_reports_absent_auc(self):
        ev = evaluations_from([([0.9, 0.1], 0), ([0.8, 0.2], 0)])
        (s,) = summarize(ev)
        assert s.auc is None
        assert s.coverage == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(1, 19),  # p(class 0) in twentieths: ties are common
                st.integers(0, 1),
                st.sampled_from(["fog", "rain", "snow"]),
                st.integers(0, 2),
            ),
            min_size=1, max_size=40,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permutation_invariance(self, rows, seed):
        samples = sample_batch(
            (f"s{i}", label, [p / 20, 1 - p / 20], condition, severity)
            for i, (p, label, condition, severity) in enumerate(rows)
        )
        thr = CalibratedThresholds(
            q_conf=0.8, q_abs=0.4, alpha=0.1, n_calibration=10, youden_j=0.5, k_classes=2,
        )
        ev = evaluate_samples(samples, thr)
        perm = np.random.default_rng(seed).permutation(len(ev))
        for a, b in zip(summarize(ev), summarize(ev.take(perm)), strict=True):
            assert (a.condition, a.severity, a.n, a.coverage) == (
                b.condition, b.severity, b.n, b.coverage,
            )
            assert (a.avg_set_size, a.abstention_rate, a.auc) == (
                b.avg_set_size, b.abstention_rate, b.auc,
            )
            for name in ("avg_entropy", "avg_confidence", "avg_margin"):
                assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-12)


# Reference: the summarize body that copied every column of each group
# with Evaluations.take; the column-wise summarize must give its floats.
def take_summarize(ev):
    if len(ev) == 0:
        raise ValueError("evaluations must be non-empty")
    out = []
    for condition, severity in sorted(set(zip(ev.condition.tolist(), ev.severity.tolist()))):
        grp = ev.take((ev.condition == condition) & (ev.severity == severity))
        n_flagged = int(grp.should_abstain.sum())
        out.append(
            EvaluationSummary(
                condition=condition,
                severity=severity,
                n=len(grp),
                coverage=float(np.mean(grp.covered)),
                avg_set_size=float(np.mean(grp.set_size)),
                avg_entropy=float(np.mean(grp.entropy)),
                avg_confidence=float(np.mean(grp.confidence)),
                avg_margin=float(np.mean(grp.margin)),
                abstention_rate=float(np.mean(grp.abstained)),
                auc=detection_auc(grp).auc if 0 < n_flagged < len(grp) else None,
            )
        )
    return out


@st.composite
def _tagged_evaluations(draw):
    """A batch over a few (condition, severity) groups. Small integer
    weights make probability ties common, and groups holding one flag
    class only (every top-1 right, or every one wrong) have no AUC."""
    k = draw(st.integers(2, 4))
    rows = []
    for i in range(draw(st.integers(1, 40))):
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
        rows.append((
            f"s{i}", draw(st.integers(0, k - 1)),
            np.asarray(weights, dtype=np.float64) / sum(weights),
            draw(st.sampled_from(["", "fog", "rain"])), draw(st.integers(0, 1)),
        ))
    thr = CalibratedThresholds(
        q_conf=draw(st.one_of(st.floats(0.0, 3.0), st.just(math.inf))),
        q_abs=draw(st.floats(0.0, 2.0)),
        alpha=0.1, n_calibration=10, youden_j=0.5, k_classes=k,
    )
    return evaluate_samples(sample_batch(rows), thr)


class TestSummarizeAgainstTake:
    @settings(max_examples=300, deadline=None)
    @given(ev=_tagged_evaluations())
    def test_summaries_equal(self, ev):
        assert summarize(ev) == take_summarize(ev)

    def test_summarize_peak(self):
        # The take-based body peaked at 2.57x the (n, k) matrix.
        n, k = 20_000, 10
        thr = CalibratedThresholds(
            q_conf=2.0, q_abs=1.0, alpha=0.1, n_calibration=10, youden_j=0.5, k_classes=k,
        )
        ev = evaluate_samples(dirichlet_samples(n, k, seed=3), thr)
        assert traced_peak(summarize, ev) <= 2.0 * n * k * 8
