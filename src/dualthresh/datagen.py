"""Seeded synthetic classifier outputs with a severity-controlled
degradation model.

This is the desk-scale stand-in for running a real perturbed-sensor
benchmark: labels are uniform, logits carry a calibrated amount of signal
on the true class, and severity degrades them in two coupled ways --
rank-corrupting Gaussian logit noise followed by a flattening temperature
scale. Flattening raises entropy and lowers confidence monotonically in
severity; the noise drags accuracy down, so misclassification detection
stays a meaningful task at every level.

All randomness flows from the config seed through a Philox4x64-10
counter-based generator (fixed constants, platform-independent streams),
keyed via numpy's SeedSequence. Draws happen in a fixed order -- labels,
base logit noise, degradation noise -- and do not depend on severity, so
configs differing only in severity see paired underlying randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SEVERITY_MAX, SampleBatch, check_tags, softmax_rows

DEFAULT_TEMPERATURE_PER_LEVEL = 0.75
DEFAULT_NOISE_SIGMA_PER_LEVEL = 0.4

_SEED_BITS = 64

# Composite Simpson rule on [-12, 12] for the accuracy integral, with the
# normal density folded into the weights. The step is spelled 24/600, not
# taken as a difference of two nodes (that is 1e-15 short), so the weights
# sum to 1 and every accuracy below 1 is reached at a finite boost.
_NODES = np.linspace(-12.0, 12.0, 601)
_SIMPSON = np.r_[1.0, np.tile([4.0, 2.0], 299), 4.0, 1.0] * (24.0 / 600 / 3)
_WEIGHTS = _SIMPSON * np.exp(-_NODES**2 / 2.0) / math.sqrt(2.0 * math.pi)


def derive_seed(base_seed: int, *parts) -> int:
    """Deterministically derive a 64-bit sub-seed from a base seed and tags.

    Hashing (sha256 over a canonical string) rather than arithmetic keeps
    distinct (condition, severity, role) streams statistically unrelated
    and reproducible across platforms.
    """
    # Imported here, not at the top: hashlib loads OpenSSL (about 3.6 MiB
    # resident), which calibrate and evaluate never use.
    import hashlib

    text = "/".join([str(int(base_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _check_signal(k_classes: int, base_accuracy: float) -> None:
    """Refuse a class count below 2, an accuracy outside (0, 1), NaN
    included, or one at or below chance, 1/k, the accuracy at boost 0 by
    symmetry, compared exactly rather than through the quadrature."""
    if k_classes < 2:
        raise ValueError(f"k_classes must be >= 2, got {k_classes}")
    if not 0.0 < base_accuracy < 1.0:
        raise ValueError(f"base_accuracy must be in (0, 1), got {base_accuracy}")
    if base_accuracy <= 1 / k_classes:
        raise ValueError(
            f"base_accuracy must exceed chance, 1/k_classes = {1 / k_classes:.6g} "
            f"for k_classes {k_classes}, got {base_accuracy}"
        )


@lru_cache(maxsize=None)
def signal_strength(k_classes: int, base_accuracy: float) -> float:
    """Logit boost on the true class yielding the requested top-1 accuracy.

    With unit-normal base noise on every logit and a boost mu on the true
    one, top-1 accuracy is P(mu + Z > max of k-1 iid Z), the integral of
    phi(z) * Phi(z + mu)**(k-1), an increasing function of mu. It is
    computed by a fixed 601-node composite Simpson rule on [-12, 12], with
    Phi(x) = erfc(-x / sqrt 2) / 2, and inverted by bisection to a bracket
    of 1e-10. The class count and accuracy ``GeneratorConfig`` refuses,
    chance included, are refused first.
    """

    def top1_accuracy(mu: float) -> float:
        erfc = np.fromiter(map(math.erfc, ((_NODES + mu) / -math.sqrt(2.0)).tolist()), float)
        return float((_WEIGHTS * (0.5 * erfc) ** (k_classes - 1)).sum())

    _check_signal(k_classes, base_accuracy)
    lo, hi = 0.0, 8.0
    while top1_accuracy(hi) < base_accuracy:
        hi *= 2.0
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if top1_accuracy(mid) < base_accuracy else (lo, mid)
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class GeneratorConfig:
    k_classes: int
    n_samples: int
    base_accuracy: float
    severity: int
    seed: int
    condition: str = ""
    temperature_per_level: float = DEFAULT_TEMPERATURE_PER_LEVEL
    noise_sigma_per_level: float = DEFAULT_NOISE_SIGMA_PER_LEVEL

    def __post_init__(self):
        _check_signal(self.k_classes, self.base_accuracy)
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        check_tags(self.condition, self.severity)
        # JSON configs may carry NaN and Infinity (NaN fails every
        # comparison), and a finite setting may overflow at the top severity.
        temperature, sigma = self.temperature_per_level, self.noise_sigma_per_level
        with np.errstate(over="ignore"):
            top_scale = np.float64(temperature) ** SEVERITY_MAX
            top_noise = SEVERITY_MAX * np.float64(sigma)
        if not (temperature > 0.0 and np.isfinite(top_scale)):
            raise ValueError(
                "temperature_per_level must be positive, and finite raised to "
                f"the top severity {SEVERITY_MAX}, got {temperature}"
            )
        if not (sigma >= 0.0 and np.isfinite(top_noise)):
            raise ValueError(
                "noise_sigma_per_level must be nonnegative, and finite times "
                f"the top severity {SEVERITY_MAX}, got {sigma}"
            )
        if not 0 <= self.seed < 2**_SEED_BITS:
            raise ValueError(f"seed must be an unsigned {_SEED_BITS}-bit integer")


def generate_dataset(config: GeneratorConfig) -> SampleBatch:
    """Draw a fully deterministic synthetic dataset.

    Clean logits are ``mu * onehot(label) + eps`` with eps iid standard
    normal and mu solved so that severity-0 top-1 accuracy matches
    ``base_accuracy``. At severity s the emitted logits are::

        (clean + s * noise_sigma_per_level * eps') * temperature_per_level**s

    i.e. noise of the configured std is injected at logit scale and the
    whole vector is then flattened. The trailing scale never reorders
    classes, so accuracy degradation is governed purely by the injected
    noise while entropy/confidence trends are governed purely by the
    temperature term.
    """
    cfg = config
    rng = _rng(cfg.seed)
    labels = rng.integers(0, cfg.k_classes, size=cfg.n_samples)
    base = rng.standard_normal((cfg.n_samples, cfg.k_classes))
    extra = rng.standard_normal((cfg.n_samples, cfg.k_classes))

    logits = base
    logits[np.arange(cfg.n_samples), labels] += signal_strength(
        cfg.k_classes, cfg.base_accuracy
    )
    noise_std = cfg.severity * cfg.noise_sigma_per_level
    # Settings that pass the config check may still overflow the logits;
    # that is reported below, and a finite shift that overflows to -inf
    # is a zero probability.
    with np.errstate(over="ignore", invalid="ignore"):
        degraded = (logits + noise_std * extra) * cfg.temperature_per_level**cfg.severity
        if not np.isfinite(degraded).all():
            raise ValueError(
                f"temperature_per_level {cfg.temperature_per_level} and "
                f"noise_sigma_per_level {cfg.noise_sigma_per_level} give non-finite "
                f"logits at severity {cfg.severity}"
            )
        probs = softmax_rows(degraded)

    tag = cfg.condition if cfg.condition else "synthetic"
    width = max(5, len(str(cfg.n_samples - 1)))
    return SampleBatch(
        sample_id=[f"{tag}-s{cfg.severity}-{i:0{width}d}" for i in range(cfg.n_samples)],
        label=labels,
        probs=probs,
        condition=cfg.condition,
        severity=cfg.severity,
    )


def exchangeable_split(
    samples: SampleBatch, n_cal: int, seed: int
) -> tuple[SampleBatch, SampleBatch]:
    """Seeded uniform shuffle, then split into (calibration, test).

    A uniform permutation keeps the two parts exchangeable, which is the
    assumption the conformal coverage guarantee rides on. Each part is
    built through the ``SampleBatch`` constructor, so it is validated
    like any other batch, at one ``as_probabilities`` call per row.
    """
    if not 0 < n_cal < len(samples):
        raise ValueError(
            f"n_cal must be in [1, {len(samples) - 1}], got {n_cal}"
        )
    perm = _rng(seed).permutation(len(samples))
    return tuple(
        SampleBatch(samples.sample_id[part], samples.label[part], samples.probs[part],
                    samples.condition, samples.severity)
        for part in (perm[:n_cal], perm[n_cal:])
    )
