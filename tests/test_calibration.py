import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualthresh.calibration import (
    CalibratedThresholds,
    abstention_threshold,
    calibrate,
    conformal_threshold,
    roc_points,
)
from dualthresh.core import DegenerateLabelsError
from dualthresh.prediction import evaluate_samples

from .test_prediction import dirichlet_samples, sample_batch, traced_peak


def label_scores(samples):
    """-log(max(p[label], 1e-12)) of each sample. numpy's log, as in the
    package: math.log differs from it in the last bit on some inputs, and
    q_abs is compared bit for bit."""
    return -np.log(np.maximum(samples.probs[np.arange(len(samples)), samples.label], 1e-12))


def oracle_quantile(scores, alpha):
    """Independent order-statistic oracle: sort ascending, take index
    ceil((n+1)(1-alpha)) - 1, exact rational rank arithmetic."""
    ordered = sorted(scores)
    n = len(ordered)
    rank = math.ceil(Fraction(n + 1) * (1 - Fraction(alpha)))
    if rank > n:
        return math.inf
    return ordered[rank - 1]


def mann_whitney(scores, flags):
    """Exhaustive pairwise ordering statistic, ties at half credit."""
    pos = [s for s, f in zip(scores, flags) if f]
    neg = [s for s, f in zip(scores, flags) if not f]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def youden_sweep(scores, flags):
    """Brute-force J at every candidate threshold."""
    n_pos = sum(flags)
    n_neg = len(flags) - n_pos
    cands = [math.inf] + sorted(set(scores), reverse=True) + [-math.inf]
    out = []
    for tau in cands:
        tp = sum(1 for s, f in zip(scores, flags) if f and s > tau)
        fp = sum(1 for s, f in zip(scores, flags) if not f and s > tau)
        out.append((tau, tp / n_pos - fp / n_neg))
    return out


class TestConformalThreshold:
    def test_nine_scores(self):
        scores = [0.1 * i for i in range(1, 10)]
        assert conformal_threshold(scores, 0.1) == pytest.approx(0.9)

    def test_four_scores_median_rank(self):
        assert conformal_threshold([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0

    def test_rank_beyond_n_gives_sentinel(self):
        assert conformal_threshold([5.0, 7.0, 9.0], 0.1) == math.inf

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(314)
        for _ in range(300):
            n = int(rng.integers(1, 501))
            scores = rng.exponential(size=n)
            if rng.random() < 0.3:  # force ties
                scores = np.round(scores, 1)
            alpha = float(rng.choice([0.01, 0.05, 0.1, 0.25, 0.5]))
            assert conformal_threshold(scores, alpha) == oracle_quantile(scores, alpha)

    def test_monotone_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(99)
        scores = rng.exponential(size=50)
        alphas = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
        q = [conformal_threshold(scores, a) for a in alphas]
        assert all(a >= b for a, b in zip(q, q[1:]))

    def test_input_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            conformal_threshold([], 0.1)
        for bad_alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                conformal_threshold([1.0], bad_alpha)


# n + 1 <= 41 scores: any floats, or in half of the draws a few values, so
# that scores tie.
_SCORES = st.lists(st.floats(allow_nan=False), min_size=2, max_size=41) | st.lists(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=2, max_size=41
)
# alpha from twentieths and from uniform floats in (0, 1).
_ALPHAS = st.integers(1, 19).map(lambda i: i / 20) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True
)


@st.composite
def _two_kind_p0s(draw):
    """p0 of each row of a 2-class, label-0 batch of n + 1 <= 41 rows: at
    least two correct rows (p0 >= 0.5) and two top-1 errors (p0 < 0.5),
    so every leave-one-out fold keeps both kinds; in half of the draws from
    a few values, so that scores tie."""
    if draw(st.booleans()):
        right, wrong = st.sampled_from([0.5, 0.75, 1.0]), st.sampled_from([0.0, 0.25])
    else:
        right, wrong = st.floats(0.5, 1.0), st.floats(0.0, 0.5, exclude_max=True)
    return draw(st.lists(right, min_size=2, max_size=20)) + draw(
        st.lists(wrong, min_size=2, max_size=21)
    )


def check_counting_guarantee(scores, covered, alpha):
    """The exact form of conformal coverage over n + 1 rows, each judged by
    a threshold fitted on the other n: at least (n+1)(1-alpha) rows are
    covered, and with distinct scores at most rank = ceil((n+1)(1-alpha)),
    all n + 1 when rank exceeds n. Coverage under exchangeability is the
    expectation of the covered fraction."""
    n = len(scores) - 1
    need = (n + 1) * (1 - Fraction(alpha))
    count = sum(covered)
    assert count >= need
    if len(set(scores)) == n + 1:
        rank = math.ceil(need)
        assert count <= rank
        if rank > n:
            assert count == n + 1


class TestCoverageGuarantee:
    @settings(max_examples=1000, deadline=None)
    @given(scores=_SCORES, alpha=_ALPHAS)
    def test_conformal_threshold_covers_exactly(self, scores, alpha):
        covered = [
            score <= conformal_threshold(scores[:i] + scores[i + 1:], alpha)
            for i, score in enumerate(scores)
        ]
        check_counting_guarantee(scores, covered, alpha)

    @settings(max_examples=150, deadline=None)
    @given(p0s=_two_kind_p0s(), alpha=_ALPHAS)
    def test_calibrate_and_evaluate_cover_exactly(self, p0s, alpha):
        samples = sample_batch((f"s{i}", 0, [p0, 1.0 - p0]) for i, p0 in enumerate(p0s))
        rows = np.arange(len(samples))
        covered = [
            bool(evaluate_samples(
                samples.take([i]), calibrate(samples.take(rows != i), alpha)
            ).covered[0])
            for i in rows
        ]
        check_counting_guarantee(label_scores(samples).tolist(), covered, alpha)


class TestRocPoints:
    def test_perfect_separation(self):
        roc = roc_points([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert roc.auc == pytest.approx(1.0)
        pts = dict(zip(roc.taus.tolist(), zip(roc.fpr.tolist(), roc.tpr.tolist())))
        assert pts[0.2] == (0.0, 1.0)

    def test_three_of_four_pairs_ordered(self):
        roc = roc_points([0.8, 0.4, 0.6, 0.2], [True, True, False, False])
        assert roc.auc == pytest.approx(0.75)

    def test_indistinguishable_scores(self):
        roc = roc_points([0.5, 0.5], [True, False])
        assert roc.auc == pytest.approx(0.5)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.normal(size=n), 1)
            flags = rng.random(n) < 0.5
            if flags.all() or not flags.any():
                flags[0] = not flags[0]
            roc = roc_points(scores, flags)
            assert roc.taus[0] == math.inf and roc.taus[-1] == -math.inf
            assert (roc.fpr[0], roc.tpr[0]) == (0.0, 0.0)
            assert (roc.fpr[-1], roc.tpr[-1]) == (1.0, 1.0)
            assert np.all(np.diff(roc.fpr) >= 0)
            assert np.all(np.diff(roc.tpr) >= 0)
            assert np.all(np.diff(roc.taus) < 0) or len(roc) == 2
            assert len(roc) == len(np.unique(scores)) + 2

    def test_matches_mann_whitney(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 21))
            scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8], size=n)
            flags = rng.random(n) < 0.5
            if flags.all() or not flags.any():
                flags[0] = not flags[0]
            roc = roc_points(scores, flags)
            assert roc.auc == pytest.approx(mann_whitney(scores, flags), abs=1e-9)

    @settings(max_examples=500, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.sampled_from([-0.0, 0.0, math.inf, -math.inf, 0.25, 0.5, -1.0, 5e-324]),
                  st.booleans()),
        min_size=2, max_size=30,
    ))
    @example(rows=[(0.0, True), (-0.0, False), (-0.0, True), (0.0, False)])
    @example(rows=[(-0.0, True), (0.0, False), (math.inf, True), (-math.inf, False)])
    def test_taus_are_the_unique_scores_bitwise(self, rows):
        # Each tau is the first of its run of equal sorted scores, as
        # np.unique on the negated scores picks it, signed zeros included.
        scores, flags = map(np.array, zip(*rows))
        assume(0 < flags.sum() < flags.size)
        s_desc = scores[np.argsort(-scores, kind="stable")]
        uniq, first_idx = np.unique(-s_desc, return_index=True)
        roc = roc_points(scores, flags)
        taus = np.concatenate([[math.inf], -uniq, [-math.inf]])
        assert np.array_equal(roc.taus.view(np.int64), taus.view(np.int64))
        counted = np.concatenate([[0], first_idx, [scores.size]])
        assert np.array_equal(roc.tp_counts + roc.fp_counts, counted)

    def test_degenerate_flags(self):
        with pytest.raises(DegenerateLabelsError):
            roc_points([0.1, 0.2], [True, True])
        with pytest.raises(DegenerateLabelsError):
            roc_points([0.1, 0.2], [False, False])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            roc_points([0.1, 0.2], [True])


class TestAbstentionThreshold:
    def test_perfect_separation(self):
        roc = roc_points([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        q_abs, j = abstention_threshold(roc)
        assert q_abs == pytest.approx(0.2)
        assert j == pytest.approx(1.0)

    def test_tie_broken_to_smallest_tau(self):
        roc = roc_points([0.9, 0.5, 0.5, 0.1], [True, True, False, False])
        q_abs, j = abstention_threshold(roc)
        assert q_abs == pytest.approx(0.1)
        assert j == pytest.approx(0.5)

    def test_separation_puts_threshold_at_max_negative(self):
        rng = np.random.default_rng(23)
        neg = rng.uniform(0.0, 0.4, size=6)
        pos = rng.uniform(0.6, 1.0, size=5)
        scores = np.concatenate([pos, neg])
        flags = [True] * 5 + [False] * 6
        q_abs, j = abstention_threshold(roc_points(scores, flags))
        assert q_abs == pytest.approx(neg.max())
        assert j == pytest.approx(1.0)

    def test_attains_brute_force_maximum(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            scores = rng.choice(np.linspace(0.0, 1.0, 9), size=n)
            flags = rng.random(n) < 0.4
            if flags.all() or not flags.any():
                flags[0] = not flags[0]
            q_abs, j = abstention_threshold(roc_points(scores, flags))
            sweep = youden_sweep(list(scores), list(flags))
            best = max(v for _, v in sweep)
            assert j >= best - 1e-12
            # tie-break: every candidate below q_abs does strictly worse
            # (distinct rational J values differ by at least 1/(n_pos*n_neg)^2,
            # far above float noise at these sizes)
            for tau, v in sweep:
                if tau < q_abs:
                    assert v < j - 1e-9

    def test_constructed_exact_ties(self):
        # quarters keep J exactly representable: candidates 0.75 and 0.25
        # both reach J = 0.5; the smaller must win
        scores = [0.9, 0.75, 0.5, 0.25]
        flags = [True, False, True, False]
        q_abs, j = abstention_threshold(roc_points(scores, flags))
        assert j == pytest.approx(0.5)
        assert q_abs == 0.25


class TestCalibrate:
    def _sample(self, sid, p0, label):
        return (sid, label, [p0, 1.0 - p0])

    def test_hand_scores_and_quantile(self):
        # -ln 0.9 and -ln 0.8 then the rank-2 order statistic of n=2
        samples = sample_batch([("a", 0, [0.9, 0.1]), ("b", 1, [0.2, 0.8])])
        scores = label_scores(samples)
        assert scores == pytest.approx([0.10536051565782628, 0.2231435513142097], abs=1e-12)
        assert conformal_threshold(scores, 0.5) == pytest.approx(0.2231435513142097)

    def test_four_sample_composition(self):
        # correct predictions scoring {0.1, 0.2}, misclassified {0.8, 0.9}
        samples = sample_batch([
            self._sample("c1", math.exp(-0.1), 0),
            self._sample("c2", math.exp(-0.2), 0),
            self._sample("m1", math.exp(-0.8), 0),
            self._sample("m2", math.exp(-0.9), 0),
        ])
        thr = calibrate(samples, alpha=0.5)
        assert thr.q_abs == pytest.approx(0.2, abs=1e-12)
        assert thr.youden_j == pytest.approx(1.0)
        assert thr.n_calibration == 4
        assert thr.k_classes == 2

    def test_sentinel_when_alpha_below_reach(self):
        samples = sample_batch([
            self._sample("c", math.exp(-0.1), 0),
            self._sample("m", math.exp(-0.8), 0),
        ])
        thr = calibrate(samples, alpha=0.1)  # rank 3 > n=2
        assert thr.q_conf == math.inf

    def test_all_correct_raises_degenerate_with_guidance(self):
        samples = sample_batch(self._sample(f"s{i}", 0.95, 0) for i in range(5))
        with pytest.raises(DegenerateLabelsError, match="unflagged"):
            calibrate(samples, alpha=0.1)

    def test_all_wrong_raises_degenerate(self):
        samples = sample_batch(self._sample(f"s{i}", 0.1, 0) for i in range(5))
        with pytest.raises(DegenerateLabelsError, match="flagged"):
            calibrate(samples, alpha=0.1)

    def test_mixed_class_counts_rejected(self):
        # Rows of two class counts form no batch, so none reaches calibrate.
        with pytest.raises(ValueError):
            sample_batch([("a", 0, [0.9, 0.1]), ("b", 0, [0.5, 0.3, 0.2])])

    def test_peak_stays_below_the_matrix(self):
        # An argmax over the whole read-only matrix copied it, a peak of
        # 1.00x here; over blocks of core.block_rows(k) rows it is 0.035x.
        n, k = 2000, 1000
        samples = dirichlet_samples(n, k, seed=3)
        assert traced_peak(calibrate, samples, 0.1) <= 0.1 * n * k * 8
        flags = samples.probs.argmax(axis=1) != samples.label
        thr = calibrate(samples, 0.1)
        assert (thr.q_abs, thr.youden_j) == abstention_threshold(
            roc_points(label_scores(samples), flags)
        )


class TestCalibratedThresholds:
    def test_invariant_validation(self):
        good = dict(q_conf=1.0, q_abs=0.5, alpha=0.1, n_calibration=10,
                    youden_j=0.5, k_classes=3)
        CalibratedThresholds(**good)
        for key, bad in [
            ("alpha", 1.5), ("alpha", 0.0), ("n_calibration", 0),
            ("q_conf", -1.0), ("q_conf", math.nan), ("youden_j", 1.5),
            ("k_classes", 1),
        ]:
            with pytest.raises(ValueError):
                CalibratedThresholds(**{**good, key: bad})


def exhaustive_youden(scores, flags):
    """(tau, J) maximizing J = TPR - FPR over +inf, every score and -inf,
    in exact arithmetic; J-ties go to the smallest tau."""
    n_pos = sum(flags)
    n_neg = len(flags) - n_pos

    def youden(tau):
        tp = sum(f and s > tau for s, f in zip(scores, flags))
        fp = sum(not f and s > tau for s, f in zip(scores, flags))
        return Fraction(tp, n_pos) - Fraction(fp, n_neg)

    candidates = [math.inf, *set(scores), -math.inf]
    best = max(map(youden, candidates))
    return min(t for t in candidates if youden(t) == best), float(best)


# Scores on a coarse grid, so ties are common, with should-abstain flags.
_SCORED_FLAGS = st.lists(
    st.tuples(st.integers(0, 6).map(lambda i: i / 4), st.booleans()),
    min_size=2, max_size=30,
)


class TestStatisticsOracles:
    """Property tests of each calibration statistic against an exhaustive
    definition computed in exact arithmetic."""

    @settings(max_examples=500, deadline=None)
    @given(
        n=st.integers(1, 40),
        grid=st.lists(st.integers(0, 8), min_size=40, max_size=40),
        # twentieths put (n+1)(1-alpha) within float error of an integer
        alpha=st.integers(1, 19).map(lambda i: i / 20)
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(n=4, grid=list(range(8)) * 5, alpha=0.6)  # float rank: 2, exact: 3
    def test_conformal_threshold_is_the_rank_order_statistic(self, n, grid, alpha):
        scores = [i / 8 for i in grid[:n]]
        target = (n + 1) * (1 - Fraction(alpha))
        rank = next(r for r in range(1, n + 2) if r >= target)
        if rank > n:
            expected = math.inf
        else:
            # the value whose block of ties in sorted order spans the rank
            (expected,) = {
                v for v in scores
                if sum(s < v for s in scores) < rank <= sum(s <= v for s in scores)
            }
        assert conformal_threshold(scores, alpha) == expected

    @settings(max_examples=300, deadline=None)
    @given(rows=_SCORED_FLAGS)
    def test_auc_is_mann_whitney_with_half_credit_for_ties(self, rows):
        scores, flags = zip(*rows)
        assume(0 < sum(flags) < len(flags))
        pos = [s for s, f in rows if f]
        neg = [s for s, f in rows if not f]
        wins = sum(Fraction(int(p > q) + int(p >= q), 2) for p in pos for q in neg)
        assert roc_points(scores, flags).auc == pytest.approx(
            float(wins / (len(pos) * len(neg))), abs=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(rows=_SCORED_FLAGS)
    def test_abstention_threshold_is_the_exhaustive_youden_optimum(self, rows):
        scores, flags = zip(*rows)
        assume(0 < sum(flags) < len(flags))
        assert abstention_threshold(roc_points(scores, flags)) == exhaustive_youden(scores, flags)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            # integer weights: equal weights give equal probabilities, so
            # argmax ties are common and exact
            st.tuples(st.lists(st.integers(0, 3), min_size=3, max_size=3)
                      .filter(any), st.integers(0, 2)),
            min_size=2, max_size=25,
        )
    )
    def test_should_abstain_is_the_top1_error(self, rows):
        samples = sample_batch(
            (f"s{i}", label, [w / sum(weights) for w in weights])
            for i, (weights, label) in enumerate(rows)
        )
        # top-1 error, argmax ties to the lowest class index
        flags = [weights.index(max(weights)) != label for weights, label in rows]

        ev = evaluate_samples(samples, CalibratedThresholds(
            q_conf=1.0, q_abs=0.5, alpha=0.1, n_calibration=1, youden_j=0.0, k_classes=3
        ))
        assert ev.should_abstain.tolist() == flags

        if all(flags) or not any(flags):
            with pytest.raises(DegenerateLabelsError, match="flagged"):
                calibrate(samples, alpha=0.1)
            return
        thr = calibrate(samples, alpha=0.1)
        assert (thr.q_abs, thr.youden_j) == exhaustive_youden(
            label_scores(samples).tolist(), flags
        )
