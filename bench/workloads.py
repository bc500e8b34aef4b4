"""The benchmark's workloads: the inputs each writes from its seed, the
``dualthresh`` commands it runs, and how its outputs are checked.

Inputs for ``logits_wide`` and ``cal_eval_tall`` are written here with
numpy, before any timing starts, so a change to ``dualthresh.datagen``
cannot change them. ``sweep_default`` generates its own data inside the
timed command, because the generator is part of what it measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check

ALPHA = 0.1


@dataclass
class Plan:
    """One prepared workload: commands to run in order, the number of test
    rows they evaluate, input sizes, and the output check."""

    commands: list[list[str]]
    test_rows: int
    inputs: dict
    check: Callable[[Path], list[str]]


def _synthetic_logits(rng, n: int, k: int, boost: float, severity: int):
    """Unit-normal logits with a boost on a uniform true label, degraded
    by noise and flattening that grow with severity."""
    labels = rng.integers(0, k, size=n)
    z = rng.standard_normal((n, k))
    z[np.arange(n), labels] += boost
    z = (z + 0.4 * severity * rng.standard_normal((n, k))) * 0.75**severity
    return labels, z


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _write_samples(path: Path, prefix: str, labels, values, kind: str) -> dict:
    """Write a samples CSV at 9 significant digits; return its sizes."""
    n, k = values.shape
    row = "%s-%06d,%d," + ",".join(["%.9g"] * k) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("sample_id,label," + ",".join(f"{kind}_{j}" for j in range(k)) + "\n")
        for i, (label, vals) in enumerate(zip(labels.tolist(), values.tolist())):
            fh.write(row % (prefix, i, label, *vals))
    return {"rows": n, "cells": n * k, "bytes": path.stat().st_size}


def _total(sizes) -> dict:
    return {key: sum(s[key] for s in sizes) for key in ("rows", "cells", "bytes")}


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def _sweep_command(config: Path, out: Path) -> list[str]:
    return ["sweep", str(config), "--out-dir", str(out)]


# ---------------------------------------------------------------------------
# sweep_default: the README default config, generated inside the sweep

SWEEP_CONDITIONS = ("rain", "fog", "snow", "motion_blur")
SWEEP_SEVERITIES = (0, 1, 2, 3, 4, 5)
SWEEP_N_TEST = 1000
SWEEP_N_CAL = 500
SWEEP_K = 10


def prepare_sweep_default(inputs: Path, out: Path, seed: int) -> Plan:
    config = inputs / "config.json"
    config.write_text(
        json.dumps(
            {
                "alpha": ALPHA,
                "conditions": list(SWEEP_CONDITIONS),
                "severities": list(SWEEP_SEVERITIES),
                "seed": seed,
                "n_calibration": SWEEP_N_CAL,
                "manifest": None,
                "generator": {
                    "k_classes": SWEEP_K,
                    "n_samples": SWEEP_N_TEST,
                    "base_accuracy": 0.9,
                    "temperature_per_level": 0.75,
                    "noise_sigma_per_level": 0.4,
                },
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    rows = len(SWEEP_CONDITIONS) * (SWEEP_N_CAL + len(SWEEP_SEVERITIES) * SWEEP_N_TEST)

    def check_outputs(out: Path) -> list[str]:
        # The sweep's own data files are the inputs; their names follow
        # the documented <condition>_cal.csv / <condition>_s<severity>.csv.
        data = out / "data"
        groups = {
            cond: (
                data / f"{cond}_cal.csv",
                [(sev, data / f"{cond}_s{sev}.csv") for sev in SWEEP_SEVERITIES],
            )
            for cond in SWEEP_CONDITIONS
        }
        return check.check_summary(out / "summary.csv", check.expected_grid(groups, ALPHA))

    return Plan(
        commands=[_sweep_command(config, out)],
        test_rows=len(SWEEP_CONDITIONS) * len(SWEEP_SEVERITIES) * SWEEP_N_TEST,
        inputs={
            "config_bytes": config.stat().st_size,
            "rows": rows,
            "cells": rows * SWEEP_K,
            "bytes": None,  # written by the sweep itself, inside the timed run
        },
        check=check_outputs,
    )


# ---------------------------------------------------------------------------
# logits_wide: benchmark-written 100-class logit CSVs through a manifest

WIDE_CONDITIONS = ("glare", "haze")
WIDE_SEVERITIES = (0, 1, 2, 3, 4, 5)
WIDE_N = 2000
WIDE_K = 100
WIDE_BOOST = 3.5


def prepare_logits_wide(inputs: Path, out: Path, seed: int) -> Plan:
    files, sizes, groups = [], [], {}
    stream = 0
    for cond in WIDE_CONDITIONS:
        tests = []
        for role, sev in [("calibration", 0)] + [("test", s) for s in WIDE_SEVERITIES]:
            name = f"{cond}_cal.csv" if role == "calibration" else f"{cond}_s{sev}.csv"
            labels, z = _synthetic_logits(_rng(seed, stream), WIDE_N, WIDE_K, WIDE_BOOST, sev)
            stream += 1
            sizes.append(_write_samples(inputs / name, f"{cond}-s{sev}", labels, z, "logit"))
            files.append({"path": name, "condition": cond, "severity": sev, "role": role})
            if role == "test":
                tests.append((sev, inputs / name))
        groups[cond] = (inputs / f"{cond}_cal.csv", tests)
    manifest = {"format_version": 1, "k_classes": WIDE_K, "files": files}
    (inputs / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    config = inputs / "config.json"
    config.write_text(json.dumps({"alpha": ALPHA, "manifest": "manifest.json"}), encoding="utf-8")

    return Plan(
        commands=[_sweep_command(config, out)],
        test_rows=len(WIDE_CONDITIONS) * len(WIDE_SEVERITIES) * WIDE_N,
        inputs=_total(sizes),
        check=lambda out: check.check_summary(
            out / "summary.csv", check.expected_grid(groups, ALPHA)
        ),
    )


# ---------------------------------------------------------------------------
# cal_eval_tall: calibrate, then evaluate, on large 10-class probability CSVs

TALL_N_CAL = 20_000
TALL_N_TEST = 100_000
TALL_K = 10
TALL_BOOST = 2.5
TALL_CONDITION = "tall"
TALL_SEVERITY = 2


def prepare_cal_eval_tall(inputs: Path, out: Path, seed: int) -> Plan:
    cal, test = inputs / "cal.csv", inputs / "test.csv"
    sizes = []
    for stream, (path, n, sev) in enumerate(
        ((cal, TALL_N_CAL, 0), (test, TALL_N_TEST, TALL_SEVERITY))
    ):
        labels, z = _synthetic_logits(_rng(seed, stream), n, TALL_K, TALL_BOOST, sev)
        sizes.append(_write_samples(path, f"{TALL_CONDITION}-s{sev}", labels, _softmax(z), "prob"))
    thresholds = out / "thresholds.json"

    def check_outputs(out: Path) -> list[str]:
        q_conf, q_abs = check.thresholds(*check.load_samples(cal), ALPHA)
        stats = check.group_stats(*check.load_samples(test), q_conf, q_abs)
        return check.check_thresholds(
            out / "thresholds.json", q_conf, q_abs, ALPHA, TALL_N_CAL, TALL_K
        ) + check.check_summary(
            out / "summary.csv", {(TALL_CONDITION, TALL_SEVERITY): stats}
        )

    return Plan(
        commands=[
            ["calibrate", "--cal", str(cal), "--alpha", str(ALPHA), "--out", str(thresholds)],
            [
                "evaluate", "--test", str(test), "--thresholds", str(thresholds),
                "--records-out", str(out / "records.csv"),
                "--summary-out", str(out / "summary.csv"),
                "--condition", TALL_CONDITION, "--severity", str(TALL_SEVERITY),
            ],
        ],
        test_rows=TALL_N_TEST,
        inputs=_total(sizes),
        check=check_outputs,
    )


# Name -> prepare(inputs_dir, out_dir, seed). Why each workload exists is
# recorded in BENCHMARK.json and, at length, in registry.json.
WORKLOADS: dict[str, Callable[[Path, Path, int], Plan]] = {
    "sweep_default": prepare_sweep_default,
    "logits_wide": prepare_logits_wide,
    "cal_eval_tall": prepare_cal_eval_tall,
}
