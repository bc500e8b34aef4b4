import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualthresh import core
from dualthresh.datagen import (
    GeneratorConfig,
    derive_seed,
    exchangeable_split,
    generate_dataset,
    signal_strength,
)
from dualthresh.prediction import evaluate_samples

from .test_cli import child_env
from .test_prediction import thresholds


def config(**overrides):
    base = dict(
        k_classes=10, n_samples=1000, base_accuracy=0.9, severity=0, seed=42
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def top1_accuracy(samples):
    return float(np.mean(samples.probs.argmax(axis=1) == samples.label))


class TestSignalStrength:
    def test_increasing_in_accuracy(self):
        mus = [signal_strength(10, a) for a in (0.5, 0.7, 0.9, 0.99)]
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_binary_case_closed_form(self):
        # for k=2, P(mu + Z1 > Z2) = Phi(mu / sqrt(2))
        from scipy.stats import norm

        mu = signal_strength(2, 0.8)
        assert norm.cdf(mu / np.sqrt(2)) == pytest.approx(0.8, abs=1e-8)

    @pytest.mark.parametrize("k", [2, 10, 100, 1000, 10000])
    @pytest.mark.parametrize("accuracy", [0.55, 0.7, 0.9, 0.95, 0.99])
    def test_matches_scipy_quad_and_brentq_within_tolerance(self, k, accuracy):
        # Oracle: scipy's adaptive quadrature of the same integral, inverted
        # by brentq to its xtol of 1e-10.
        from scipy import integrate, optimize, stats

        def top1_accuracy(mu):
            return integrate.quad(
                lambda z: stats.norm.pdf(z) * stats.norm.cdf(z + mu) ** (k - 1),
                -12.0,
                12.0,
            )[0]

        hi = 8.0
        while top1_accuracy(hi) < accuracy:
            hi *= 2.0
        expected = optimize.brentq(
            lambda m: top1_accuracy(m) - accuracy, 0.0, hi, xtol=1e-10
        )
        mu = signal_strength(k, accuracy)
        assert abs(mu - expected) <= 1e-9
        assert abs(top1_accuracy(mu) - accuracy) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.sampled_from([2, 10, 1000]),
        a=st.floats(0.001, 0.999),
        b=st.floats(0.001, 0.999),
    )
    def test_monotone_in_accuracy(self, k, a, b):
        lo, hi = sorted((a, b))
        assume(lo > 1 / k)
        assert signal_strength(k, lo) <= signal_strength(k, hi)

    @pytest.mark.parametrize("k", [2, 10, 100, 1000])
    def test_chance_is_refused_and_just_above_it_is_solved(self, k):
        # Accuracy at mu = 0 is 1/k by symmetry; the quadrature's own value
        # there may round either side of it.
        with pytest.raises(ValueError, match="must exceed chance"):
            signal_strength(k, 1 / k)
        assert 0.0 <= signal_strength(k, float(np.nextafter(1 / k, 1))) <= 1e-6

    @pytest.mark.parametrize("k", [2, 10000])
    def test_largest_accuracy_below_one_is_reached(self, k):
        # The bracket doubles until the accuracy is reached, so the
        # quadrature must reach every float below 1 once Phi saturates.
        assert 8.0 < signal_strength(k, float(np.nextafter(1.0, 0))) < 64.0

    @pytest.mark.parametrize(
        "k, accuracy, message",
        [
            (10, math.nan, "base_accuracy must be in (0, 1), got nan"),
            (10, 1.0, "base_accuracy must be in (0, 1), got 1.0"),
            (10, 0.0, "base_accuracy must be in (0, 1), got 0.0"),
            (10, -0.5, "base_accuracy must be in (0, 1), got -0.5"),
            (1, 0.5, "k_classes must be >= 2, got 1"),
            (0, 0.5, "k_classes must be >= 2, got 0"),
            (-3, 0.5, "k_classes must be >= 2, got -3"),
            *(
                (k, 1 / k, f"base_accuracy must exceed chance, 1/k_classes = {1 / k:.6g} "
                 f"for k_classes {k}, got {1 / k}")
                for k in (2, 10, 100, 1000)
            ),
        ],
    )
    def test_refuses_what_a_generator_config_refuses(self, k, accuracy, message):
        for refused in (lambda: signal_strength(k, accuracy),
                        lambda: config(k_classes=k, base_accuracy=accuracy)):
            with pytest.raises(ValueError) as exc:
                refused()
            assert str(exc.value) == message

    def test_accuracy_above_one_is_refused_in_a_child(self):
        # No boost reaches an accuracy above 1, so a search for one never
        # ends; a child with a timeout keeps such a hang out of the suite.
        proc = subprocess.run(
            [sys.executable, "-c", "import dualthresh; dualthresh.signal_strength(10, 1.5)"],
            env=child_env(), capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "ValueError: base_accuracy must be in (0, 1), got 1.5"
        )


class TestGenerateDataset:
    def test_deterministic_for_same_seed(self):
        a = generate_dataset(config())
        b = generate_dataset(config())
        assert a.sample_id.tolist() == b.sample_id.tolist()
        assert a.label.tolist() == b.label.tolist()
        assert np.array_equal(a.probs, b.probs)

    def test_different_seeds_differ(self):
        a = generate_dataset(config(seed=1))
        b = generate_dataset(config(seed=2))
        assert not np.array_equal(a.probs[0], b.probs[0])

    def test_severity_zero_accuracy_matches_target(self):
        samples = generate_dataset(config(n_samples=10_000, seed=77))
        assert 0.88 <= top1_accuracy(samples) <= 0.92

    def test_accuracy_anchor_holds_for_other_targets(self):
        samples = generate_dataset(
            config(n_samples=10_000, base_accuracy=0.7, k_classes=5, seed=78)
        )
        assert 0.68 <= top1_accuracy(samples) <= 0.72

    def test_entropy_strictly_higher_at_max_severity(self):
        clean = generate_dataset(config(n_samples=5000, seed=5))
        heavy = generate_dataset(config(n_samples=5000, seed=5, severity=5))
        thr = thresholds(1.0, 0.5, k=10)
        h0 = evaluate_samples(clean, thr).entropy.mean()
        h5 = evaluate_samples(heavy, thr).entropy.mean()
        assert h5 > h0

    def test_severity_monotone_in_expectation(self):
        ents, confs = [], []
        for severity in range(6):
            samples = generate_dataset(
                config(n_samples=5000, seed=13, severity=severity)
            )
            ev = evaluate_samples(samples, thresholds(1.0, 0.5, k=10))
            ents.append(ev.entropy.mean())
            confs.append(ev.confidence.mean())
        assert all(a <= b for a, b in zip(ents, ents[1:]))
        assert all(a >= b for a, b in zip(confs, confs[1:]))

    def test_tags_carried_through(self):
        samples = generate_dataset(config(condition="fog", severity=2, n_samples=3))
        assert (samples.condition, samples.severity) == ("fog", 2)
        assert samples.sample_id[0].startswith("fog-s2-")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(k_classes=1),
            dict(n_samples=0),
            dict(base_accuracy=1.0),
            dict(base_accuracy=0.0),
            dict(severity=6),
            dict(temperature_per_level=0.0),
            dict(noise_sigma_per_level=-0.1),
            dict(seed=-1),
            dict(temperature_per_level=float("nan")),
            dict(temperature_per_level=float("inf")),
            dict(noise_sigma_per_level=float("nan")),
            dict(noise_sigma_per_level=float("inf")),
            # finite, but overflowing at the top severity
            dict(temperature_per_level=1e70),
            dict(noise_sigma_per_level=1e308),
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            config(**bad)

    @pytest.mark.parametrize("severity", [0, 1, 3, 5])
    def test_probabilities_follow_the_documented_model(self, severity):
        # Rebuilt from the module docstring: Philox keyed by
        # SeedSequence(seed) draws the labels, the base noise eps, then the
        # degradation noise eps'; the logits (clean + s*sigma*eps') * T**s,
        # with clean = mu * onehot(label) + eps, go through a softmax.
        cfg = config(k_classes=5, n_samples=300, base_accuracy=0.8, severity=severity,
                     seed=2024, temperature_per_level=0.6, noise_sigma_per_level=0.7)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
        labels = rng.integers(0, 5, size=300)
        eps = rng.standard_normal((300, 5))
        eps_prime = rng.standard_normal((300, 5))
        clean = eps + signal_strength(5, 0.8) * np.eye(5)[labels]
        z = (clean + severity * 0.7 * eps_prime) * 0.6**severity
        e = np.exp(z - z.max(axis=1, keepdims=True))
        samples = generate_dataset(cfg)
        assert samples.label.tolist() == labels.tolist()
        np.testing.assert_allclose(samples.probs, e / e.sum(axis=1, keepdims=True),
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "setting, named",
        [
            # each passes the config check but overflows the scaled logits
            (dict(temperature_per_level=3.9e61), "temperature_per_level 3.9e+61 and "),
            (dict(noise_sigma_per_level=3e307), "noise_sigma_per_level 3e+307 give"),
        ],
    )
    def test_overflowing_logits_raise_without_a_warning(self, setting, named):
        cfg = config(severity=5, n_samples=50, **setting)
        with pytest.raises(ValueError, match="non-finite logits at severity 5") as exc:
            generate_dataset(cfg)
        assert named in str(exc.value)
        assert len(generate_dataset(replace(cfg, severity=1))) == 50


class TestExchangeableSplit:
    def test_partition_contract(self):
        samples = generate_dataset(config(n_samples=10))
        cal, test = exchangeable_split(samples, 4, seed=3)
        assert len(cal) == 4 and len(test) == 6
        ids = set(cal.sample_id) | set(test.sample_id)
        assert ids == set(samples.sample_id)
        assert not (set(cal.sample_id) & set(test.sample_id))

    def test_split_validates_each_row_once(self, monkeypatch):
        # Both parts are built through the checked constructor, so every
        # row goes through as_probabilities once, as in any other batch.
        samples = generate_dataset(config(n_samples=10, condition="fog", severity=2))
        calls = []
        real = core.as_probabilities
        monkeypatch.setattr(core, "as_probabilities", lambda p: calls.append(p) or real(p))
        cal, test = exchangeable_split(samples, 4, seed=3)
        assert (len(cal), len(test)) == (4, 6) and len(calls) == 10
        rows = np.concatenate([cal.probs, test.probs])
        assert sorted(map(tuple, calls)) == sorted(map(tuple, rows))
        assert (cal.condition, cal.severity) == (test.condition, test.severity) == ("fog", 2)
        assert not any(c.flags.writeable for part in (cal, test)
                       for c in (part.sample_id, part.label, part.probs))

    def test_same_seed_same_split(self):
        samples = generate_dataset(config(n_samples=50))
        a = exchangeable_split(samples, 20, seed=9)
        b = exchangeable_split(samples, 20, seed=9)
        assert a[0].sample_id.tolist() == b[0].sample_id.tolist()

    def test_invalid_sizes(self):
        samples = generate_dataset(config(n_samples=10))
        for n_cal in (0, 10, 11):
            with pytest.raises(ValueError):
                exchangeable_split(samples, n_cal, seed=1)

    def test_calibration_class_proportions_unbiased(self):
        # binary labels; over many seeded splits the calibration part's
        # class-1 count is Hypergeometric(n=200, K=80, draws=100):
        # mean 40, sd = sqrt(100 * 0.4 * 0.6 * (100/199)) ~= 3.47
        samples = generate_dataset(config(n_samples=200, k_classes=2, seed=55))
        n_one = int(samples.label.sum())
        counts = []
        for trial in range(1000):
            cal, _ = exchangeable_split(samples, 100, seed=derive_seed(100, trial))
            counts.append(int(cal.label.sum()))
        counts = np.asarray(counts, dtype=float)
        expected = n_one * 100 / 200
        sd = np.sqrt(100 * (n_one / 200) * (1 - n_one / 200) * (100 / 199))
        assert abs(counts.mean() - expected) < 3 * sd / np.sqrt(1000)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, "rain", 3) == derive_seed(1, "rain", 3)
        assert derive_seed(1, "rain", 3) != derive_seed(1, "rain", 4)
        assert derive_seed(1, "rain") != derive_seed(2, "rain")
        assert 0 <= derive_seed(123, "x") < 2**64
