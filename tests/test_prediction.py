import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualthresh import prediction
from dualthresh.calibration import CalibratedThresholds
from dualthresh.core import (
    LabeledSample,
    nonconformity,
    nonconformity_scores,
    normalized_entropies,
    top_two,
)
from dualthresh.metrics import confidence, margin, normalized_entropy
from dualthresh.prediction import (
    Evaluations,
    abstain_decision,
    evaluate_samples,
    prediction_set,
)


def thresholds(q_conf, q_abs, k=2, alpha=0.1, n=10):
    return CalibratedThresholds(
        q_conf=q_conf, q_abs=q_abs, alpha=alpha, n_calibration=n,
        youden_j=0.5, k_classes=k,
    )


def random_prob_vector(rng, k):
    p = rng.dirichlet(np.ones(k) * rng.uniform(0.3, 3.0))
    return p / p.sum()


def evaluate_one(sample, thr, **kwargs):
    ev = evaluate_samples([sample], thr, **kwargs)
    assert len(ev) == 1
    return ev


def assert_same(a: Evaluations, b: Evaluations):
    for name in Evaluations.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestPredictionSet:
    def test_hand_computed_members(self):
        # -ln 0.6 = 0.511 is the only score under ln 2
        assert prediction_set([0.6, 0.3, 0.1], math.log(2)) == (0,)

    def test_sentinel_includes_everything(self):
        assert prediction_set([0.7, 0.1, 0.1, 0.1], math.inf) == (0, 1, 2, 3)

    def test_boundary_is_inclusive(self):
        assert prediction_set([0.25, 0.25, 0.25, 0.25], math.log(4)) == (0, 1, 2, 3)

    def test_empty_set_is_legal(self):
        assert prediction_set([0.5, 0.5], 0.1) == ()

    def test_monotone_in_q_conf(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_prob_vector(rng, int(rng.integers(2, 15)))
            q1, q2 = sorted(rng.uniform(0.0, 4.0, size=2))
            small = set(prediction_set(p, q1))
            large = set(prediction_set(p, q2))
            assert small <= large


class TestAbstainDecision:
    def test_confident_sample_not_abstained(self):
        assert abstain_decision([0.9, 0.1], 0.2) is False

    def test_uncertain_sample_abstained(self):
        assert abstain_decision([0.5, 0.5], 0.2) is True

    def test_one_hot_never_abstains(self):
        for q_abs in (0.0, 0.1, 5.0):
            assert abstain_decision([0.0, 1.0], q_abs) is False

    def test_equivalent_to_confidence_cutoff(self):
        # -log(max p) > q  <=>  max p < exp(-q), up to the clamp
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            p = random_prob_vector(rng, int(rng.integers(2, 8)))
            q_abs = float(rng.uniform(0.0, 3.0))
            assert abstain_decision(p, q_abs) == (p.max() < math.exp(-q_abs))


class TestEvaluateSample:
    def test_confident_correct_sample(self):
        ev = evaluate_one(LabeledSample("a", 0, [0.9, 0.1]), thresholds(0.3, 0.2))
        assert ev.covered[0] and not ev.abstained[0] and not ev.should_abstain[0]
        assert ev.top1[0] == 0
        assert ev.score_top1[0] == pytest.approx(0.10536051565782628, abs=1e-12)

    def test_uncertain_wrong_sample(self):
        ev = evaluate_one(LabeledSample("b", 1, [0.5, 0.5]), thresholds(0.3, 0.2))
        assert ev.set_size[0] == 0
        assert not ev.covered[0]
        assert ev.abstained[0]
        # argmax tie breaks to class 0, which differs from the label
        assert ev.top1[0] == 0
        assert ev.should_abstain[0]

    def test_sentinel_threshold_always_covers(self):
        rng = np.random.default_rng(12)
        thr = thresholds(math.inf, 0.5, k=4)
        samples = [
            LabeledSample("x", int(rng.integers(0, 4)), random_prob_vector(rng, 4))
            for _ in range(100)
        ]
        ev = evaluate_samples(samples, thr)
        assert ev.covered.all()
        assert (ev.set_size == 4).all()

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError, match="classes"):
            evaluate_samples(
                [LabeledSample("a", 0, [0.2, 0.3, 0.5])], thresholds(0.3, 0.2, k=2)
            )
        with pytest.raises(ValueError, match="'b' has 3 classes"):
            evaluate_samples(
                [LabeledSample("a", 0, [0.5, 0.5]), LabeledSample("b", 0, [0.2, 0.3, 0.5])],
                thresholds(0.3, 0.2, k=2),
            )

    def test_covered_recomputable_and_margin_bounded(self):
        rng = np.random.default_rng(21)
        thr = thresholds(1.0, 0.7, k=6)
        samples = [
            LabeledSample(f"s{i}", int(rng.integers(0, 6)), random_prob_vector(rng, 6))
            for i in range(300)
        ]
        ev = evaluate_samples(samples, thr)
        assert np.array_equal(ev.covered, ev.in_set[np.arange(len(ev)), ev.label])
        for i, smp in enumerate(samples):
            score_label = -math.log(max(float(smp.probs[smp.label]), 1e-12))
            assert ev.covered[i] == (score_label <= thr.q_conf)
        assert (ev.margin <= ev.confidence).all()

    def test_deterministic_and_order_preserving(self):
        rng = np.random.default_rng(33)
        thr = thresholds(1.0, 0.7, k=4)
        samples = [
            LabeledSample(f"s{i}", int(rng.integers(0, 4)), random_prob_vector(rng, 4),
                          condition=f"c{i % 3}", severity=i % 6)
            for i in range(50)
        ]
        first = evaluate_samples(samples, thr)
        assert_same(first, evaluate_samples(samples, thr))
        assert first.sample_id.tolist() == [s.sample_id for s in samples]
        assert first.label.tolist() == [s.label for s in samples]
        assert first.condition.tolist() == [s.condition for s in samples]
        assert first.severity.tolist() == [s.severity for s in samples]

    def test_single_sample_matches_batch(self):
        rng = np.random.default_rng(44)
        thr = thresholds(1.2, 0.6, k=5)
        samples = [
            LabeledSample(f"s{i}", int(rng.integers(0, 5)), random_prob_vector(rng, 5))
            for i in range(40)
        ]
        batch = evaluate_samples(samples, thr)
        for i, smp in enumerate(samples):
            assert_same(batch.take([i]), evaluate_one(smp, thr))

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_samples([], thresholds(1.0, 0.5))

    def test_record_fields_match_public_metrics(self):
        # the batch kernel must agree exactly with the single-vector
        # operations, including on vectors with exact zeros
        rng = np.random.default_rng(55)
        thr = thresholds(1.0, 0.6, k=5)
        vectors = [random_prob_vector(rng, 5) for _ in range(60)]
        vectors += [np.array([0.5, 0.5, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0, 0.0])]
        samples = [LabeledSample(f"s{i}", 0, p) for i, p in enumerate(vectors)]
        assert_matches_scalar_helpers(evaluate_samples(samples, thr), samples, thr)


def assert_matches_scalar_helpers(ev, samples, thr):
    """Every row of the batch equals the single-vector reference helpers."""
    for i, smp in enumerate(samples):
        assert ev.entropy[i] == normalized_entropy(smp.probs)
        assert ev.confidence[i] == confidence(smp.probs)
        assert ev.margin[i] == margin(smp.probs)
        assert ev.score_top1[i] == nonconformity(smp.probs, int(ev.top1[i]))
        assert ev.top1[i] == int(np.argmax(smp.probs))
        members = prediction_set(smp.probs, thr.q_conf)
        assert tuple(np.flatnonzero(ev.in_set[i]).tolist()) == members
        assert ev.set_size[i] == len(members)
        assert ev.covered[i] == (smp.label in members)
        assert ev.abstained[i] == abstain_decision(smp.probs, thr.q_abs)
        assert ev.should_abstain[i] == (ev.top1[i] != smp.label)


class TestEvaluationsBatch:
    def test_len_set_size_and_take(self):
        thr = thresholds(math.log(2), 0.2, k=2)
        samples = [
            LabeledSample("a", 0, [0.9, 0.1], "rain", 1),
            LabeledSample("b", 1, [0.5, 0.5], "fog", 2),
            LabeledSample("c", 1, [0.3, 0.7], "rain", 3),
        ]
        ev = evaluate_samples(samples, thr)
        assert len(ev) == 3
        assert ev.set_size.tolist() == [1, 2, 1]
        by_index = ev.take(np.array([2, 0]))
        assert by_index.sample_id.tolist() == ["c", "a"]
        assert by_index.set_size.tolist() == [1, 1]
        by_mask = ev.take(ev.condition == "rain")
        assert by_mask.sample_id.tolist() == ["a", "c"]
        assert by_mask.severity.tolist() == [1, 3]
        assert by_mask.in_set.shape == (2, 2)


# A probability row with some exact zeros and ties, which the scalar and
# batch paths must treat identically.
_prob_rows = st.integers(2, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any),
        min_size=1, max_size=12,
    )
)


class TestBatchAgainstScalar:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=_prob_rows,
        q_conf=st.one_of(st.floats(0.0, 5.0), st.just(math.inf)),
        q_abs=st.floats(0.0, 3.0),
        data=st.data(),
    )
    def test_every_row_equals_scalar_helpers(self, rows, q_conf, q_abs, data):
        k = len(rows[0])
        samples = [
            LabeledSample(
                f"s{i}", data.draw(st.integers(0, k - 1)),
                np.asarray(w, dtype=np.float64) / sum(w),
            )
            for i, w in enumerate(rows)
        ]
        thr = thresholds(q_conf, q_abs, k=k)
        assert_matches_scalar_helpers(evaluate_samples(samples, thr), samples, thr)


# Reference: the unblocked body that the row-blocked evaluate_samples
# replaced, with the np.stack-based stacking it called. The blocked
# kernels must give exactly its arrays and its error messages.
def unblocked_evaluate(samples, thresholds):
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    try:
        p_mat = np.stack([smp.probs for smp in samples])
    except ValueError:
        k = samples[0].k_classes
        bad = next(smp for smp in samples if smp.k_classes != k)
        raise ValueError(
            f"sample {bad.sample_id!r} has {bad.k_classes} classes, expected {k}"
        ) from None
    labels = np.fromiter((smp.label for smp in samples), dtype=np.int64, count=len(samples))
    if p_mat.shape[1] != thresholds.k_classes:
        raise ValueError(
            f"sample {samples[0].sample_id!r} has {p_mat.shape[1]} classes, "
            f"thresholds were calibrated for {thresholds.k_classes}"
        )
    rows = np.arange(labels.size)

    scores = nonconformity_scores(p_mat)
    in_set = scores <= thresholds.q_conf
    covered = in_set[rows, labels]
    top1 = p_mat.argmax(axis=1)
    score_top1 = scores[rows, top1]
    conf, second = top_two(p_mat)

    return Evaluations(
        sample_id=np.array([smp.sample_id for smp in samples], dtype=object),
        label=labels,
        condition=np.array([smp.condition for smp in samples], dtype=object),
        severity=np.fromiter((smp.severity for smp in samples), dtype=np.int64, count=rows.size),
        in_set=in_set,
        covered=covered,
        abstained=score_top1 > thresholds.q_abs,
        should_abstain=top1 != labels,
        top1=top1,
        score_top1=score_top1,
        entropy=normalized_entropies(p_mat),
        confidence=conf,
        margin=conf - second,
    )


@st.composite
def _blocked_batches(draw):
    """(samples, rows per block): a batch of n rows straddling a multiple
    of the block, with exact zeros and ties among the probabilities."""
    k = draw(st.integers(2, 6))
    block = draw(st.integers(1, 4))
    n = max(1, block * draw(st.integers(1, 4)) + draw(st.integers(-1, 1)))
    samples = []
    for i in range(n):
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
        samples.append(
            LabeledSample(
                f"s{i}", draw(st.integers(0, k - 1)),
                np.asarray(weights, dtype=np.float64) / sum(weights),
                draw(st.sampled_from(["", "fog", "rain"])), draw(st.integers(0, 5)),
            )
        )
    return samples, block


class TestBlockedAgainstUnblocked:
    @settings(max_examples=300, deadline=None)
    @given(
        batch=_blocked_batches(),
        spare_cells=st.integers(0, 5),
        q_conf=st.one_of(st.floats(0.0, 5.0), st.just(math.inf)),
        q_abs=st.floats(0.0, 3.0),
    )
    def test_every_field_equal(self, batch, spare_cells, q_conf, q_abs):
        samples, block = batch
        k = samples[0].k_classes
        thr = thresholds(q_conf, q_abs, k=k)
        # Any cell budget from block * k to block * k + k - 1 gives
        # blocks of `block` rows.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prediction, "BLOCK_CELLS", block * k + spare_cells % k)
            assert_same(evaluate_samples(samples, thr), unblocked_evaluate(samples, thr))

    def test_default_block_over_several_blocks(self):
        rng = np.random.default_rng(61)
        k = 10
        n = 2 * (prediction.BLOCK_CELLS // k) + 1
        probs = rng.dirichlet(np.full(k, 0.5), size=n)
        probs[::7, 3] = 0.0  # exact zeros, renormalized below
        probs /= probs.sum(axis=1, keepdims=True)
        samples = [
            LabeledSample(f"s{i}", int(label), p)
            for i, (label, p) in enumerate(zip(rng.integers(0, k, size=n), probs))
        ]
        thr = thresholds(1.5, 0.9, k=k)
        assert_same(evaluate_samples(samples, thr), unblocked_evaluate(samples, thr))

    @settings(max_examples=200, deadline=None)
    @given(
        class_counts=st.lists(st.integers(2, 4), min_size=1, max_size=6),
        k_thresholds=st.integers(2, 4),
    )
    def test_error_messages_unchanged(self, class_counts, k_thresholds):
        samples = [
            LabeledSample(f"s{i}", 0, np.full(k, 1.0 / k)) for i, k in enumerate(class_counts)
        ]
        thr = thresholds(1.0, 0.5, k=k_thresholds)
        try:
            want = unblocked_evaluate(samples, thr)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                evaluate_samples(samples, thr)
            assert str(got.value) == str(exc)
        else:
            assert_same(evaluate_samples(samples, thr), want)


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dirichlet_samples(n, k, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, size=n)
    return [LabeledSample(f"s{i}", int(y), p) for i, (y, p) in enumerate(zip(labels, probs))]


class TestWorkingMemory:
    """Evaluation's peak stays near the one (n, k) matrix it stacks, not a
    multiple of it (the unblocked body peaked at 5.99x and 5.26x)."""

    @pytest.mark.parametrize("n, k, limit", [(20_000, 10, 3.5), (5_000, 1000, 1.5)])
    def test_evaluate_samples_peak(self, n, k, limit):
        samples = dirichlet_samples(n, k, seed=k)
        peak = traced_peak(evaluate_samples, samples, thresholds(2.0, 1.0, k=k))
        assert peak <= limit * n * k * 8
