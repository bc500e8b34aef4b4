import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualthresh import core
from dualthresh.core import (
    PROB_SUM_TOL,
    SampleBatch,
    as_probabilities,
    nonconformity_scores,
    softmax,
    softmax_rows,
)

from .test_prediction import evaluations_from, sample_batch


class TestSoftmax:
    def test_symmetric_pair(self):
        assert softmax([0.0, 0.0]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_hand_exponentiation(self):
        # exp(ln 4) = 4, exp(0) = 1 -> [4/5, 1/5]
        out = softmax([math.log(4.0), 0.0])
        assert out == pytest.approx([0.8, 0.2], abs=1e-12)

    def test_large_equal_logits_do_not_overflow(self):
        assert softmax([1000.0, 1000.0]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_sums_to_one_at_any_magnitude(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 30))
            scale = 10.0 ** rng.uniform(-3, 4)
            z = rng.standard_normal(k) * scale
            p = softmax(z)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p >= 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = rng.standard_normal(int(rng.integers(2, 12)))
            c = float(rng.uniform(-50, 50))
            assert softmax(z + c) == pytest.approx(softmax(z), abs=1e-12)

    @pytest.mark.parametrize("bad", [[1.0, float("nan")], [float("inf"), 0.0], [1.0]])
    def test_invalid_input(self, bad):
        with pytest.raises(ValueError):
            softmax(bad)

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.sampled_from([2, 3, 10, 100, 1000, 2000]) | st.integers(2, 2000),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1e-3, 1.0, 30.0, 700.0, 1e3, 1e100, 1e307]),
        edges=st.lists(st.floats(-1e308, 1e308) | st.sampled_from([1e308, -1e308]), max_size=6),
    )
    @example(k=2, n=1, seed=0, spread=1.0, edges=[1e308, -1e308])
    @example(k=2000, n=3, seed=1, spread=1e307, edges=[1e308, -1e308, -1e308, 1e308])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_kernel_equals_softmax_of_each_row(self, k, n, seed, spread, edges):
        # A block's rows through the kernel, as the CSV reader normalizes
        # them, are bit for bit each row through softmax, at widths up to
        # 2,000 and magnitudes up to 1e308, where the shift overflows to
        # -inf. The edge entries land in any row.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, k)) * spread
        z.flat[rng.integers(0, z.size, len(edges))] = edges
        rows = softmax_rows(z)
        for i in range(n):
            assert rows[i].tobytes() == softmax(z[i]).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shift_past_the_largest_double_is_a_zero_without_a_warning(self):
        assert softmax([0.0, 1e308, -1e308]).tolist() == [0.0, 1.0, 0.0]


class TestNonconformity:
    """The -log p score, read from an evaluation's top-1 score and set
    membership columns."""

    def test_certain_correct_prediction(self):
        assert evaluations_from([([1.0, 0.0], 0)]).score_top1[0] == 0.0

    def test_even_split(self):
        score = evaluations_from([([0.5, 0.5], 0)]).score_top1[0]
        assert score == pytest.approx(math.log(2), abs=1e-12)

    def test_clamp_floor(self):
        # a zero-probability class scores -log of the 1e-12 clamp floor, so
        # it joins the set at exactly that q_conf and not one float below
        floor_score = 27.631021115928547
        below = np.nextafter(floor_score, 0.0)
        for q_conf, in_set in ((floor_score, [True, True]), (below, [True, False])):
            assert (nonconformity_scores(np.array([1.0, 0.0])) <= q_conf).tolist() == in_set
            # the row under each label: covered is membership of that label
            ev = evaluations_from([([1.0, 0.0], 0), ([1.0, 0.0], 1)], q_conf=q_conf)
            assert ev.covered.tolist() == in_set
            assert ev.set_size.tolist() == [sum(in_set)] * 2

    def test_label_out_of_range(self):
        for label in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                sample_batch([("a", label, [0.5, 0.5])])

    def test_monotone_decreasing_in_probability(self):
        # the other 99 classes share 1 - p, so p > 0.01 is the top-1 entry
        rng = np.random.default_rng(11)
        p1, p2 = np.sort(rng.uniform(0.02, 0.99, size=(200, 2)), axis=1).T
        distinct = p1 < p2
        rows = [[p] + [(1.0 - p) / 99] * 99 for p in np.concatenate([p2[distinct], p1[distinct]])]
        ev = evaluations_from([(p, 0) for p in rows])
        assert (ev.top1 == 0).all()
        s_low, s_high = ev.score_top1.reshape(2, -1)
        assert (s_low < s_high).all()

    def test_zero_iff_probability_is_one(self):
        rows = [[1.0, 0.0], [1.0 - 1e-12, 1e-12], [0.9999, 0.0001]]
        scores = evaluations_from([(p, 0) for p in rows]).score_top1
        assert scores[0] == 0.0
        # anything at least 1e-12 below 1 scores strictly positive
        assert (scores[1:] > 0.0).all()


class TestValidation:
    def test_probabilities_reject_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            as_probabilities([0.5, 0.6])

    def test_probabilities_accept_rounded_sum(self):
        p = as_probabilities([0.3333333, 0.3333333, 0.3333334])
        assert p.sum() == pytest.approx(1.0, abs=1e-6)

    def test_probabilities_reject_out_of_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            as_probabilities([1.2, -0.2])

    def test_probabilities_are_read_only(self):
        p = as_probabilities([0.4, 0.6])
        with pytest.raises(ValueError):
            p[0] = 0.5

    def test_logits_require_two_classes(self):
        with pytest.raises(ValueError, match="^need at least 2 classes, got 1$"):
            softmax([3.0])


def sequential_probabilities(values):
    """Reference validator: every check in order on the whole row, then an
    unconditional clip."""
    p = np.array(values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"probabilities must be one-dimensional, got shape {p.shape}")
    if p.size < 2:
        raise ValueError(f"need at least 2 classes, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities contain NaN or infinite entries")
    if np.any(p < -1e-9) or np.any(p > 1.0 + 1e-9):
        raise ValueError("probabilities outside [0, 1]")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total:.9f}, expected 1 within {PROB_SUM_TOL}")
    return np.clip(p, 0.0, 1.0)


def sequential_logits(values):
    """Reference validator for logits: shape, class count, then finiteness."""
    z = np.array(values, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"logits must be one-dimensional, got shape {z.shape}")
    if z.size < 2:
        raise ValueError(f"need at least 2 classes, got {z.size}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain NaN or infinite entries")
    return z


def _outcome(validate, values):
    """('ok', shape, bytes) for an accepted row, ('error', message) otherwise."""
    try:
        out = validate(values)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", out.shape, out.tobytes())


def _ulps_from(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


# The doubles where the sum test flips: the largest total still within
# PROB_SUM_TOL above 1 and the smallest within it below.
_SUM_EDGE_HIGH = max(
    x for x in (_ulps_from(1.0 + PROB_SUM_TOL, n) for n in range(-4, 5))
    if x - 1.0 <= PROB_SUM_TOL
)
_SUM_EDGE_LOW = min(
    x for x in (_ulps_from(1.0 - PROB_SUM_TOL, n) for n in range(-4, 5))
    if 1.0 - x <= PROB_SUM_TOL
)

# Entries at each edge the validators test: the bound slack around 0 and
# 1, signed zero, huge finite values (whose sum overflows) and non-finite.
_EDGE_ENTRY = st.sampled_from([
    0.0, -0.0, 1.0, 0.5, -1e-9, 1e-9, -2e-9, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 2e-9,
    math.nextafter(-1e-9, -1.0), math.nextafter(1.0 + 1e-9, 2.0),
    1.7e308, -1.7e308, math.nan, math.inf, -math.inf,
])
_ENTRY = st.one_of(_EDGE_ENTRY, st.floats(-2.0, 2.0), st.floats())


@st.composite
def _rows_summing_near_the_edge(draw):
    """Rows whose last entry puts the exact sum a few ulps from a sum-test
    edge, so summation order decides acceptance. From 8 entries on numpy
    sums pairwise, not left to right; random mantissas make the two
    orders round differently."""
    k = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = (rng.dirichlet(np.ones(k)) * 0.99)[: k - 1].tolist()
    edge = draw(st.sampled_from([_SUM_EDGE_HIGH, _SUM_EDGE_LOW, 1.0]))
    target = _ulps_from(edge, draw(st.integers(-3, 3)))
    row = rest + [target - math.fsum(rest)]
    if draw(st.booleans()):
        row[draw(st.integers(0, k - 1))] = draw(_EDGE_ENTRY)
    return row


@st.composite
def _wide_rows_near_the_edges(draw):
    """Rows of up to 1000 entries whose exact sum is a few ulps from a
    sum-test edge, or from where the fast accept's margin of k * 2**-50
    inside it ends, or a few margins further in. Python's left-to-right
    sum and numpy's pairwise one round differently on such rows."""
    k = draw(st.integers(2, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = (rng.dirichlet(np.ones(k)) * 0.99)[: k - 1].tolist()
    edge = draw(st.sampled_from([_SUM_EDGE_HIGH, _SUM_EDGE_LOW]))
    inward = draw(st.sampled_from([0, 1, 2, 3])) * k * 2.0**-50
    target = _ulps_from(edge - inward if edge > 1.0 else edge + inward, draw(st.integers(-3, 3)))
    return rest + [target - math.fsum(rest)]


_ROWS = st.one_of(
    st.lists(_ENTRY, min_size=0, max_size=12),
    _rows_summing_near_the_edge(),
    st.lists(st.lists(_ENTRY, min_size=2, max_size=2), min_size=1, max_size=3),
    st.lists(_ENTRY, min_size=1, max_size=1),
    _ENTRY,
)


# A warning would print beside the one-line error on the command line.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestValidatorOracle:
    @settings(max_examples=1500, deadline=None)
    @given(values=_ROWS)
    def test_probabilities_match_the_sequential_checks(self, values):
        assert _outcome(as_probabilities, values) == _outcome(sequential_probabilities, values)

    @settings(max_examples=1000, deadline=None)
    @given(values=_wide_rows_near_the_edges())
    def test_fast_accept_matches_the_sequential_checks(self, values):
        assert _outcome(as_probabilities, values) == _outcome(sequential_probabilities, values)

    @settings(max_examples=500, deadline=None)
    @given(values=_ROWS)
    def test_logits_match_the_sequential_checks(self, values):
        assert _outcome(softmax, values) == _outcome(
            lambda v: softmax_rows(sequential_logits(v)), values
        )

    def test_sum_edges_are_the_tolerance(self):
        assert _SUM_EDGE_HIGH - 1.0 <= PROB_SUM_TOL < math.nextafter(_SUM_EDGE_HIGH, 2.0) - 1.0
        assert 1.0 - _SUM_EDGE_LOW <= PROB_SUM_TOL < 1.0 - math.nextafter(_SUM_EDGE_LOW, 0.0)

    def test_signed_zero_is_kept(self):
        p = as_probabilities([-0.0, 1.0])
        assert math.copysign(1.0, p[0]) == -1.0
        assert p.tobytes() == sequential_probabilities([-0.0, 1.0]).tobytes()


class TestSampleBatch:
    def test_valid_batch(self):
        batch = SampleBatch(["a", "b"], [1, 0], [[0.2, 0.8], [0.6, 0.4]], "rain\x00", 3)
        assert len(batch) == 2 and batch.k_classes == 2
        assert batch.probs[0, 1] == 0.8
        assert batch.label.dtype == np.int64 and batch.probs.dtype == np.float64
        assert (batch.condition, batch.severity) == ("rain\x00", 3)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_any_integer_label_dtype_is_stored_as_int64(self, dtype):
        batch = SampleBatch(["a", "b"], np.array([1, 0], dtype=dtype), [[0.2, 0.8], [0.6, 0.4]])
        assert batch.label.dtype == np.int64 and batch.label.tolist() == [1, 0]

    @pytest.mark.parametrize("labels, dtype", [
        ([1.7, 0.0], "float64"),
        ([1.0, 0.0], "float64"),
        ([True, False], "bool"),
        (["1", "0"], "<U1"),
        ([2**70, 0], "object"),
    ])
    def test_labels_that_are_not_integers(self, labels, dtype):
        # A cast would truncate 1.7 to class 1, True and "1" to 1.
        with pytest.raises(ValueError) as err:
            SampleBatch(["a", "b"], labels, [[0.2, 0.8], [0.6, 0.4]])
        assert str(err.value) == f"label must hold integers, got {dtype}"

    def test_repeated_sample_id(self):
        # The file written from such a batch is one the reader rejects.
        with pytest.raises(ValueError) as err:
            SampleBatch(["a", "b", "a"], [0, 1, 1], [[0.5, 0.5]] * 3)
        assert str(err.value) == "duplicate sample_id 'a' (first in row 0)"

    def test_columns_are_read_only_copies(self):
        probs = np.array([[0.2, 0.8]])
        batch = SampleBatch(["a"], [1], probs)
        probs[0, 0] = 0.5
        assert batch.probs[0, 0] == 0.2
        for column in (batch.sample_id, batch.label, batch.probs):
            assert not column.flags.writeable

    def test_rows_are_validated_and_clipped(self):
        with pytest.raises(ValueError, match="sum"):
            SampleBatch(["a", "b"], [0, 0], [[0.5, 0.5], [0.5, 0.6]])
        batch = SampleBatch(["a"], [0], [[1.0 + 1e-10, -1e-10]])
        assert batch.probs.tolist() == [[1.0, 0.0]]

    def test_label_out_of_range(self):
        with pytest.raises(ValueError) as err:
            SampleBatch(["a", "b"], [0, 2], [[0.2, 0.8], [0.2, 0.8]])
        assert str(err.value) == "label 2 out of range for 2 classes"

    def test_severity_out_of_range(self):
        with pytest.raises(ValueError) as err:
            SampleBatch(["a"], [0], [[0.2, 0.8]], severity=6)
        assert str(err.value) == "severity must be in [0, 5], got 6"

    @pytest.mark.parametrize("tags, message", [
        ((["rain", "fog"], 0), "condition must be a str, got list"),
        ((np.array(["rain", "fog"]), 0), "condition must be a str, got ndarray"),
        (("rain", [1, 2]), "severity must be an integer, got list"),
        (("rain", np.array([1, 2])), "severity must be an integer, got ndarray"),
        (("rain", 2.0), "severity must be an integer, got float"),
        (("rain", True), "severity must be an integer, got bool"),
        (("fog\rrain", 0), "condition must not hold a carriage return, got 'fog\\rrain'"),
    ])
    def test_unsupported_tags(self, tags, message):
        with pytest.raises(ValueError) as err:
            SampleBatch(["a", "b"], [0, 1], [[0.2, 0.8], [0.5, 0.5]], *tags)
        assert str(err.value) == message

    @pytest.mark.parametrize("ids, message", [
        ([1, 2], "sample_id must be a str, got int"),
        (["a", None], "sample_id must be a str, got NoneType"),
        (["a", "b\rc"], "sample_id 'b\\rc' holds a carriage return"),
    ])
    def test_ids_the_csv_writers_cannot_write(self, ids, message):
        with pytest.raises(ValueError) as err:
            SampleBatch(ids, [0, 1], [[0.2, 0.8], [0.5, 0.5]])
        assert str(err.value) == message

    def test_numpy_integer_severity_is_stored_as_int(self):
        batch = SampleBatch(["a"], [0], [[0.2, 0.8]], "rain", np.int64(3))
        assert type(batch.severity) is int and batch.severity == 3

    @pytest.mark.parametrize("columns", [
        (["a"], [0, 1], [[0.2, 0.8]]),
        (["a", "b"], [0], [[0.2, 0.8], [0.5, 0.5]]),
        (["a"], [0], [[0.2, 0.8]], ["rain", "fog"]),
        (["a"], [0], [0.2, 0.8]),
        (["a", "b"], [0, 0], [[0.2, 0.8], [0.2, 0.3, 0.5]]),
        ([], [], np.empty((0, 3))),
    ])
    def test_malformed_columns(self, columns):
        with pytest.raises(ValueError):
            SampleBatch(*columns)

    def test_take_selects_rows_without_validating(self, monkeypatch):
        batch = SampleBatch(["a", "b", "c"], [0, 1, 1], [[0.9, 0.1], [0.5, 0.5], [0.3, 0.7]],
                            "rain", 2)
        calls = []
        monkeypatch.setattr(core, "as_probabilities", lambda p: calls.append(p))
        part = batch.take(np.array([2, 0]))
        assert part.sample_id.tolist() == ["c", "a"]
        assert part.probs.tolist() == [[0.3, 0.7], [0.9, 0.1]]
        assert (part.condition, part.severity) == ("rain", 2)
        assert batch.take(batch.sample_id != "a").label.tolist() == [1, 1]
        # Not validated again: a repeated index repeats its sample id.
        assert batch.take(np.array([1, 1])).sample_id.tolist() == ["b", "b"]
        assert not part.probs.flags.writeable
        assert calls == []
        with pytest.raises(ValueError, match="non-empty"):
            batch.take(batch.label > 5)

    def test_logit_rows_go_through_softmax(self):
        batch = SampleBatch(["a"], [0], [softmax([2.0, 0.0, -1.0])])
        assert batch.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert batch.probs.argmax() == 0
