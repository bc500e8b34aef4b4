import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualthresh import core
from dualthresh.calibration import CalibratedThresholds
from dualthresh.core import SampleBatch, nonconformity_scores, normalized_entropies, top_two
from dualthresh.prediction import Evaluations, evaluate_samples


def thresholds(q_conf, q_abs, k=2, alpha=0.1, n=10):
    return CalibratedThresholds(
        q_conf=q_conf, q_abs=q_abs, alpha=alpha, n_calibration=n,
        youden_j=0.5, k_classes=k,
    )


def random_prob_vector(rng, k):
    p = rng.dirichlet(np.ones(k) * rng.uniform(0.3, 3.0))
    return p / p.sum()


def sample_batch(rows, condition="", severity=0):
    """A SampleBatch of (sample_id, label, probs) rows with the given tags."""
    return SampleBatch(*zip(*rows), condition=condition, severity=severity)


def evaluate_one(row, thr, **kwargs):
    ev = evaluate_samples(sample_batch([row]), thr, **kwargs)
    assert len(ev) == 1
    return ev


def evaluations_from(probs_labels, q_conf=1.0, q_abs=0.7, condition="", severity=0):
    """Evaluate (probabilities, label) pairs of one class count as one batch."""
    samples = sample_batch(
        ((f"s{i}", label, probs) for i, (probs, label) in enumerate(probs_labels)),
        condition, severity,
    )
    return evaluate_samples(samples, thresholds(q_conf, q_abs, k=len(probs_labels[0][0])))


def members(probs, q_conf):
    """The sorted labels in the prediction set of one probability row,
    worked out from its scores. Evaluated once under each label, the row
    must cover exactly those labels and count them as its set size."""
    k = len(probs)
    samples = sample_batch((f"s{y}", y, probs) for y in range(k))
    in_set = nonconformity_scores(samples.probs[0]) <= q_conf
    ev = evaluate_samples(samples, thresholds(q_conf, 0.7, k=k))
    assert ev.covered.tolist() == in_set.tolist()
    assert (ev.set_size == in_set.sum()).all()
    return tuple(np.flatnonzero(in_set).tolist())


def assert_same(a: Evaluations, b: Evaluations, row=None):
    """Every field of ``a`` equals ``b``'s; with ``row``, the columns of
    ``a`` are read at that one row."""
    rows = slice(None) if row is None else slice(row, row + 1)
    assert (a.condition, a.severity) == (b.condition, b.severity)
    for name in list(Evaluations.__dataclass_fields__)[2:]:
        x, y = getattr(a, name)[rows], getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestPredictionSet:
    def test_hand_computed_members(self):
        # -ln 0.6 = 0.511 is the only score under ln 2
        assert members([0.6, 0.3, 0.1], math.log(2)) == (0,)

    def test_sentinel_includes_everything(self):
        assert members([0.7, 0.1, 0.1, 0.1], math.inf) == (0, 1, 2, 3)

    def test_boundary_is_inclusive(self):
        assert members([0.25, 0.25, 0.25, 0.25], math.log(4)) == (0, 1, 2, 3)

    def test_empty_set_is_legal(self):
        assert members([0.5, 0.5], 0.1) == ()

    def test_monotone_in_q_conf(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_prob_vector(rng, int(rng.integers(2, 15)))
            q1, q2 = sorted(rng.uniform(0.0, 4.0, size=2))
            small = set(members(p, q1))
            large = set(members(p, q2))
            assert small <= large


class TestAbstainDecision:
    def test_confident_sample_not_abstained(self):
        assert not evaluations_from([([0.9, 0.1], 0)], q_abs=0.2).abstained[0]

    def test_uncertain_sample_abstained(self):
        assert evaluations_from([([0.5, 0.5], 0)], q_abs=0.2).abstained[0]

    def test_one_hot_never_abstains(self):
        for q_abs in (0.0, 0.1, 5.0):
            assert not evaluations_from([([0.0, 1.0], 0)], q_abs=q_abs).abstained[0]

    def test_equivalent_to_confidence_cutoff(self):
        # -log(max p) > q  <=>  max p < exp(-q), up to the clamp
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            p = random_prob_vector(rng, int(rng.integers(2, 8)))
            q_abs = float(rng.uniform(0.0, 3.0))
            ev = evaluations_from([(p, 0)], q_abs=q_abs)
            assert ev.abstained[0] == (p.max() < math.exp(-q_abs))


class TestEvaluateSample:
    def test_confident_correct_sample(self):
        ev = evaluate_one(("a", 0, [0.9, 0.1]), thresholds(0.3, 0.2))
        assert ev.covered[0] and not ev.abstained[0] and not ev.should_abstain[0]
        assert ev.top1[0] == 0
        assert ev.score_top1[0] == pytest.approx(0.10536051565782628, abs=1e-12)

    def test_uncertain_wrong_sample(self):
        ev = evaluate_one(("b", 1, [0.5, 0.5]), thresholds(0.3, 0.2))
        assert ev.set_size[0] == 0
        assert not ev.covered[0]
        assert ev.abstained[0]
        # argmax tie breaks to class 0, which differs from the label
        assert ev.top1[0] == 0
        assert ev.should_abstain[0]

    def test_sentinel_threshold_always_covers(self):
        rng = np.random.default_rng(12)
        thr = thresholds(math.inf, 0.5, k=4)
        samples = sample_batch(
            (f"s{i}", int(rng.integers(0, 4)), random_prob_vector(rng, 4)) for i in range(100)
        )
        ev = evaluate_samples(samples, thr)
        assert ev.covered.all()
        assert (ev.set_size == 4).all()

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError) as err:
            evaluate_one(("a", 0, [0.2, 0.3, 0.5]), thresholds(0.3, 0.2, k=2))
        assert str(err.value) == (
            "sample 'a' has 3 classes, thresholds were calibrated for 2"
        )
        # A batch has one class count: rows of two counts are no batch.
        with pytest.raises(ValueError):
            sample_batch([("a", 0, [0.5, 0.5]), ("b", 0, [0.2, 0.3, 0.5])])

    def test_covered_recomputable_and_margin_bounded(self):
        rng = np.random.default_rng(21)
        thr = thresholds(1.0, 0.7, k=6)
        samples = sample_batch(
            (f"s{i}", int(rng.integers(0, 6)), random_prob_vector(rng, 6)) for i in range(300)
        )
        ev = evaluate_samples(samples, thr)
        in_set = nonconformity_scores(samples.probs) <= thr.q_conf
        assert np.array_equal(ev.covered, in_set[np.arange(len(ev)), ev.label])
        assert np.array_equal(ev.set_size, in_set.sum(axis=1))
        for i, (label, p) in enumerate(zip(samples.label, samples.probs)):
            score_label = -math.log(max(float(p[label]), 1e-12))
            assert ev.covered[i] == (score_label <= thr.q_conf)
        assert (ev.margin <= ev.confidence).all()

    def test_deterministic_and_order_preserving(self):
        rng = np.random.default_rng(33)
        thr = thresholds(1.0, 0.7, k=4)
        rows = [
            (f"s{i}", int(rng.integers(0, 4)), random_prob_vector(rng, 4)) for i in range(50)
        ]
        samples = sample_batch(rows, "c1", 4)
        first = evaluate_samples(samples, thr)
        assert_same(first, evaluate_samples(samples, thr))
        assert first.sample_id.tolist() == [row[0] for row in rows]
        assert first.label.tolist() == [row[1] for row in rows]
        assert (first.condition, first.severity) == ("c1", 4)

    def test_single_sample_matches_batch(self):
        rng = np.random.default_rng(44)
        thr = thresholds(1.2, 0.6, k=5)
        rows = [
            (f"s{i}", int(rng.integers(0, 5)), random_prob_vector(rng, 5)) for i in range(40)
        ]
        batch = evaluate_samples(sample_batch(rows), thr)
        for i, row in enumerate(rows):
            assert_same(batch, evaluate_one(row, thr), row=i)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="non-empty"):
            SampleBatch([], [], np.empty((0, 2)))

    def test_record_fields_match_public_metrics(self):
        # every per-sample column against its definition, worked out per
        # vector with Python floats, including on vectors with exact zeros
        rng = np.random.default_rng(55)
        thr = thresholds(1.0, 0.6, k=5)
        vectors = [random_prob_vector(rng, 5) for _ in range(60)]
        vectors += [np.array([0.5, 0.5, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0, 0.0])]
        samples = sample_batch((f"s{i}", 0, p) for i, p in enumerate(vectors))
        ev = evaluate_samples(samples, thr)
        for i, p in enumerate(p.tolist() for p in vectors):
            second, first = sorted(p)[-2:]
            scores = [-math.log(max(x, 1e-12)) for x in p]
            entropy = -sum(x * math.log(x) for x in p if x > 0.0) / math.log(5)
            assert ev.entropy[i] == pytest.approx(entropy, abs=1e-12)
            assert ev.confidence[i] == first
            assert ev.margin[i] == first - second
            assert ev.top1[i] == p.index(first)
            assert ev.score_top1[i] == pytest.approx(scores[p.index(first)], abs=1e-12)
            assert ev.set_size[i] == sum(s <= thr.q_conf for s in scores)
            assert ev.covered[i] == (scores[0] <= thr.q_conf)
            assert ev.abstained[i] == (scores[p.index(first)] > thr.q_abs)
            assert ev.should_abstain[i] == (p.index(first) != 0)


class TestEvaluationsBatch:
    def test_len_set_size_and_row_order(self):
        thr = thresholds(math.log(2), 0.2, k=2)
        rows = [("a", 0, [0.9, 0.1]), ("b", 1, [0.5, 0.5]), ("c", 1, [0.3, 0.7])]
        ev = evaluate_samples(sample_batch(rows, "rain", 3), thr)
        assert len(ev) == 3
        assert ev.set_size.tolist() == [1, 2, 1]
        part = evaluate_samples(sample_batch([rows[2], rows[0]], "rain", 3), thr)
        assert part.sample_id.tolist() == ["c", "a"]
        assert (part.condition, part.severity) == ("rain", 3)
        assert part.set_size.tolist() == [1, 1]

    @pytest.mark.parametrize("k", [2, 1000])
    def test_every_array_field_is_one_value_per_row(self, k):
        ev = evaluate_samples(dirichlet_samples(7, k, seed=k), thresholds(2.0, 1.0, k=k))
        names = [f.name for f in fields(Evaluations)]
        assert names[:2] == ["condition", "severity"] and "in_set" not in names
        for name in names[2:]:
            assert getattr(ev, name).shape == (len(ev),), name
        assert ev.set_size.dtype == np.intp
        assert not [name for name, v in vars(Evaluations).items() if isinstance(v, property)]


# A probability row with some exact zeros and ties, which a one-sample
# batch and a longer batch must treat identically.
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
    def test_every_row_equals_its_one_sample_batch(self, rows, q_conf, q_abs, data):
        k = len(rows[0])
        rows = [
            (f"s{i}", data.draw(st.integers(0, k - 1)), np.asarray(w, dtype=np.float64) / sum(w))
            for i, w in enumerate(rows)
        ]
        thr = thresholds(q_conf, q_abs, k=k)
        batch = evaluate_samples(sample_batch(rows), thr)
        for i, row in enumerate(rows):
            assert_same(batch, evaluate_one(row, thr), row=i)


# Reference: the unblocked body that the row-blocked evaluate_samples
# replaced. The blocked kernels must give exactly its arrays and its
# error message.
def unblocked_evaluate(samples, thresholds):
    labels, p_mat = samples.label, samples.probs
    if p_mat.shape[1] != thresholds.k_classes:
        raise ValueError(
            f"sample {samples.sample_id[0]!r} has {p_mat.shape[1]} classes, "
            f"thresholds were calibrated for {thresholds.k_classes}"
        )
    rows = np.arange(labels.size)

    scores = nonconformity_scores(p_mat)
    in_set = scores <= thresholds.q_conf
    top1 = p_mat.argmax(axis=1)
    score_top1 = scores[rows, top1]
    conf, second = top_two(p_mat)

    return Evaluations(
        sample_id=samples.sample_id,
        label=labels,
        condition=samples.condition,
        severity=samples.severity,
        set_size=in_set.sum(axis=1),
        covered=in_set[rows, labels],
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
    rows = []
    for i in range(n):
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
        rows.append((
            f"s{i}", draw(st.integers(0, k - 1)),
            np.asarray(weights, dtype=np.float64) / sum(weights),
        ))
    tags = draw(st.sampled_from(["", "fog", "rain"])), draw(st.integers(0, 5))
    return sample_batch(rows, *tags), block


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
        k = samples.k_classes
        thr = thresholds(q_conf, q_abs, k=k)
        # Any cell budget from block * k to block * k + k - 1 gives
        # blocks of `block` rows.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK_CELLS", block * k + spare_cells % k)
            assert_same(evaluate_samples(samples, thr), unblocked_evaluate(samples, thr))

    def test_default_block_over_several_blocks(self):
        rng = np.random.default_rng(61)
        k = 10
        n = 2 * core.block_rows(k) + 1
        probs = rng.dirichlet(np.full(k, 0.5), size=n)
        probs[::7, 3] = 0.0  # exact zeros, renormalized below
        probs /= probs.sum(axis=1, keepdims=True)
        samples = SampleBatch([f"s{i}" for i in range(n)], rng.integers(0, k, size=n), probs)
        thr = thresholds(1.5, 0.9, k=k)
        assert_same(evaluate_samples(samples, thr), unblocked_evaluate(samples, thr))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        k=st.integers(2, 4),
        k_thresholds=st.integers(2, 4),
    )
    def test_error_messages_unchanged(self, n, k, k_thresholds):
        samples = sample_batch((f"s{i}", 0, np.full(k, 1.0 / k)) for i in range(n))
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
    return SampleBatch([f"s{i}" for i in range(n)], labels, probs)


class TestWorkingMemory:
    """Evaluation's peak stays near the one (n, k) matrix it stacks, not a
    multiple of it (the unblocked body peaked at 5.99x and 5.26x)."""

    @pytest.mark.parametrize("n, k, limit", [(20_000, 10, 3.5), (5_000, 1000, 1.5)])
    def test_evaluate_samples_peak(self, n, k, limit):
        samples = dirichlet_samples(n, k, seed=k)
        peak = traced_peak(evaluate_samples, samples, thresholds(2.0, 1.0, k=k))
        assert peak <= limit * n * k * 8
