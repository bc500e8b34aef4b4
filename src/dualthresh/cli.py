"""Command-line pipeline: generate, calibrate, evaluate, sweep.

Files are read and written through :mod:`dualthresh.io`, which also checks
the config against the key tables below. Exit codes: 0 success, 2 usage
or input error (including every malformed input file), 3 degenerate-
statistics error (a threshold could not be placed because the calibration
flags collapsed to one class). Errors print a single line prefixed
``error:`` on standard error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from . import __version__
from .calibration import (
    THRESHOLDS_FORMAT_VERSION,
    CalibratedThresholds,
    calibrate,
)
from .core import DegenerateLabelsError, SEVERITY_MAX, SEVERITY_MIN
from .datagen import GeneratorConfig, derive_seed, generate_dataset
from .io import (
    INTEGER,
    MANIFEST_FORMAT_VERSION,
    NUMBER,
    ArtifactError,
    DatasetManifest,
    ManifestCondition,
    ParseError,
    check_fields,
    is_int,
    load_json,
    read_logits_csv,
    read_manifest,
    read_thresholds,
    write_heatmap,
    write_manifest,
    write_records_csv,
    write_roc_csv,
    write_samples_csv,
    write_summary,
    write_thresholds,
)
from .metrics import EvaluationSummary, detection_auc, summarize
from .prediction import evaluate_samples

DEFAULT_CONDITIONS = ("rain", "fog", "snow", "motion_blur")
DEFAULT_SEVERITIES = (0, 1, 2, 3, 4, 5)

# The JSON type of each config key; the generator keys live under the
# "generator" object.
_TOP_KEY_TYPES = {
    "alpha": NUMBER,
    "conditions": ("a list of strings", lambda v: isinstance(v, list)
                   and all(isinstance(c, str) for c in v)),
    "severities": ("a list of integers", lambda v: isinstance(v, list)
                   and all(map(is_int, v))),
    "seed": INTEGER,
    "n_calibration": INTEGER,
    "manifest": ("a string", lambda v: v is None or isinstance(v, str)),
    "generator": ("an object", lambda v: isinstance(v, dict)),
}
_GEN_KEY_TYPES = {
    "k_classes": INTEGER, "n_samples": INTEGER, "base_accuracy": NUMBER,
    "temperature_per_level": NUMBER, "noise_sigma_per_level": NUMBER,
}
# The generator settings a config overrides key by key; severity, seed and
# condition are set per generated file.
DEFAULT_GENERATOR = GeneratorConfig(
    k_classes=10, n_samples=1000, base_accuracy=0.9, severity=0, seed=0
)


@dataclass(frozen=True)
class SweepConfig:
    """Parsed sweep/generation configuration file.

    ``generator`` is the template every generated file is drawn from: its
    ``n_samples`` sizes each test file, and the calibration and test
    configs replace its size, severity, seed and condition.
    """

    alpha: float = 0.1
    conditions: tuple[str, ...] = DEFAULT_CONDITIONS
    severities: tuple[int, ...] = DEFAULT_SEVERITIES
    seed: int = 2024
    n_calibration: int = 500
    generator: GeneratorConfig = DEFAULT_GENERATOR
    manifest: Optional[str] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if len(self.conditions) == 0:
            raise ValueError("conditions must be non-empty")
        if len(self.severities) == 0:
            raise ValueError("severities must be non-empty")
        for sev in self.severities:
            if not SEVERITY_MIN <= sev <= SEVERITY_MAX:
                raise ValueError(
                    f"severities must be in [{SEVERITY_MIN}, {SEVERITY_MAX}], got {sev}"
                )
        if len(set(self.conditions)) != len(self.conditions):
            raise ValueError("conditions contain duplicates")
        for cond in self.conditions:
            if "\r" in cond:
                raise ValueError(f"conditions must not hold a carriage return, got {cond!r}")
        if len(set(self.severities)) != len(self.severities):
            raise ValueError("severities contain duplicates")
        if self.n_calibration < 1:
            raise ValueError("n_calibration must be >= 1")

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        doc = check_fields(f"{path}: config", load_json(path), _TOP_KEY_TYPES)
        gen = check_fields(f"{path}: config generator", doc.pop("generator", {}), _GEN_KEY_TYPES)
        for key in ("conditions", "severities"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc, generator=replace(DEFAULT_GENERATOR, **gen))

    def calibration_config(self, condition: str) -> GeneratorConfig:
        return replace(
            self.generator, n_samples=self.n_calibration, severity=0,
            seed=derive_seed(self.seed, condition, "cal"), condition=condition,
        )

    def test_config(self, condition: str, severity: int) -> GeneratorConfig:
        return replace(
            self.generator, severity=severity,
            seed=derive_seed(self.seed, condition, "test", severity), condition=condition,
        )


def _slugs(conditions) -> dict[str, str]:
    """Map each condition to the name its files carry, with every run of
    characters other than letters, digits, ``.``, ``_`` and ``-`` made
    ``_``. Conditions sharing a name would overwrite each other's files,
    so that is a ValueError naming the first two in sorted order."""
    owner: dict[str, str] = {}
    for cond in sorted(conditions):
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", cond) or "unnamed"
        if slug in owner:
            raise ValueError(
                f"conditions {owner[slug]!r} and {cond!r} share the file name {slug!r}"
            )
        owner[slug] = cond
    return {cond: slug for slug, cond in owner.items()}


def _print_thresholds(thresholds: CalibratedThresholds) -> None:
    print(f"q_conf={thresholds.q_conf:.6f}")
    print(f"q_abs={thresholds.q_abs:.6f}")
    print(f"youden_j={thresholds.youden_j:.6f}")
    print(f"n={thresholds.n_calibration}")


def _warn_sentinel(thresholds: CalibratedThresholds) -> None:
    if thresholds.q_conf == float("inf"):
        print(
            "warning: q_conf=inf (alpha below 1/(n+1)); prediction sets will "
            "contain every label and coverage holds vacuously",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# gen


def _generate_tree(cfg: SweepConfig, out: Path, quiet: bool = False) -> Path:
    """Write all per-(condition, severity) CSVs plus a manifest; return the
    manifest path."""
    slugs = _slugs(cfg.conditions)
    out.mkdir(parents=True, exist_ok=True)
    conditions = []
    for cond in cfg.conditions:
        slug = slugs[cond]
        cal_name = f"{slug}_cal.csv"
        cal = generate_dataset(cfg.calibration_config(cond))
        write_samples_csv(cal, out / cal_name)
        if not quiet:
            print(f"wrote {out / cal_name} ({len(cal)} samples)")
        tests = []
        for sev in cfg.severities:
            name = f"{slug}_s{sev}.csv"
            samples = generate_dataset(cfg.test_config(cond, sev))
            write_samples_csv(samples, out / name)
            if not quiet:
                print(f"wrote {out / name} ({len(samples)} samples)")
            tests.append((sev, name))
        conditions.append(ManifestCondition(cond, cal_name, tuple(tests)))

    manifest_path = out / "manifest.json"
    write_manifest(DatasetManifest(cfg.generator.k_classes, tuple(conditions)), manifest_path)
    if not quiet:
        n_files = len(conditions) * (1 + len(cfg.severities))
        print(f"wrote {manifest_path} ({n_files} files)")
    return manifest_path


def cmd_gen(args) -> int:
    cfg = SweepConfig.from_file(args.config)
    _generate_tree(cfg, Path(args.out))
    return 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> int:
    samples = read_logits_csv(args.cal)
    thresholds = calibrate(samples, args.alpha)
    _warn_sentinel(thresholds)
    write_thresholds(thresholds, args.out)
    _print_thresholds(thresholds)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    if not SEVERITY_MIN <= args.severity <= SEVERITY_MAX:
        raise ValueError(
            f"--severity must be in [{SEVERITY_MIN}, {SEVERITY_MAX}], got {args.severity}"
        )
    if "\r" in args.condition:
        raise ValueError(f"--condition must not hold a carriage return, got {args.condition!r}")
    if Path(args.records_out).resolve() == Path(args.summary_out).resolve():
        raise ValueError(
            f"--records-out and --summary-out name the same file {args.records_out!r}; "
            "the summary would overwrite the records"
        )
    thresholds = read_thresholds(args.thresholds)
    # The rows go straight into evaluation, so they are freed before the
    # export; only the per-row outputs stay.
    ev = evaluate_samples(
        read_logits_csv(args.test, condition=args.condition, severity=args.severity),
        thresholds,
    )
    write_records_csv(ev, args.records_out)
    fmt = "json" if str(args.summary_out).endswith(".json") else "csv"
    write_summary([summarize(ev)], args.summary_out, format=fmt)
    print(f"evaluated {len(ev)} samples")
    print(f"wrote {args.records_out}")
    print(f"wrote {args.summary_out}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _read_manifest_file(path, cond: str, severity: int, k_classes: int):
    """Read one file of a manifest, which must hold ``k_classes`` classes."""
    samples = read_logits_csv(path, cond, severity)
    if samples.k_classes != k_classes:
        raise ArtifactError(f"{path}: {samples.k_classes} classes, manifest declares {k_classes}")
    return samples


def _run_condition(
    alpha: float, k_classes: int, group: ManifestCondition, slug: str, out: Path,
    summaries: list,
) -> None:
    """Calibrate one condition on its calibration file, then read, evaluate
    and export its test files one at a time to files named by ``slug``,
    printing a line per step and appending each group's summary to
    ``summaries``. On failure the files written so far are renamed
    ``*.partial`` and the error is re-raised."""
    cond = group.condition
    written = []
    try:
        thresholds = calibrate(_read_manifest_file(group.calibration, cond, 0, k_classes), alpha)
        _warn_sentinel(thresholds)
        print(
            f"[{cond}] q_conf={thresholds.q_conf:.6f}"
            f" q_abs={thresholds.q_abs:.6f} youden_j={thresholds.youden_j:.6f}"
            f" n={thresholds.n_calibration}"
        )

        for sev, path in group.tests:
            ev = evaluate_samples(_read_manifest_file(path, cond, sev, k_classes), thresholds)
            rec_path = out / f"records_{slug}_s{sev}.csv"
            write_records_csv(ev, rec_path)
            written.append(rec_path)

            summary = summarize(ev)
            if summary.auc is not None:
                roc_path = out / f"roc_{slug}_s{sev}.csv"
                write_roc_csv(detection_auc(ev), roc_path)
                written.append(roc_path)
            summaries.append(summary)
            print(
                f"[{cond}] severity {sev}: n={summary.n} "
                f"coverage={summary.coverage:.4f} "
                f"abstention={summary.abstention_rate:.4f}"
            )
    except Exception:
        for path in written:
            if path.exists():
                path.rename(path.with_name(path.name + ".partial"))
        raise


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_file(args.config)
    out = Path(args.out_dir)

    # Data always flows through the CSV ingestion path, whether freshly
    # generated or supplied via a manifest; a one-group sweep is then
    # byte-for-byte the calibrate + evaluate pipeline.
    if cfg.manifest is not None:
        manifest_path = Path(cfg.manifest)
        if not manifest_path.is_absolute():
            manifest_path = Path(args.config).resolve().parent / manifest_path
    else:
        manifest_path = _generate_tree(cfg, out / "data", quiet=True)
        print(f"generated dataset under {out / 'data'}")
    manifest = read_manifest(manifest_path)
    slugs = _slugs(c.condition for c in manifest.conditions)
    out.mkdir(parents=True, exist_ok=True)
    all_summaries: list[EvaluationSummary] = []
    failures = {}
    for group in manifest.conditions:
        try:
            _run_condition(
                cfg.alpha, manifest.k_classes, group, slugs[group.condition], out, all_summaries
            )
        except BrokenPipeError:  # stdout is gone: no later condition can report
            raise
        except Exception as exc:  # reported per condition; sweep continues
            failures[group.condition] = exc

    suffix = ".partial" if failures else ""
    if all_summaries:
        write_summary(all_summaries, out / f"summary.csv{suffix}", format="csv")
        write_summary(all_summaries, out / f"summary.json{suffix}", format="json")
        write_heatmap(all_summaries, out / f"heatmap.csv{suffix}")
        print(f"wrote {out / ('summary.csv' + suffix)}")
        print(f"wrote {out / ('summary.json' + suffix)}")
        print(f"wrote {out / ('heatmap.csv' + suffix)}")

    if failures:
        for cond, exc in failures.items():
            print(f"error: condition {cond!r} failed: {exc}", file=sys.stderr)
        if all(isinstance(exc, DegenerateLabelsError) for exc in failures.values()):
            return 3
        return 2
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualthresh",
        description=(
            "Dual-threshold conformal prediction: calibrate a coverage-"
            "guaranteed conformal threshold and a ROC-optimized abstention "
            "threshold, then evaluate prediction sets and abstention "
            "decisions over severity-stratified data."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"dualthresh {__version__} "
            f"(thresholds format {THRESHOLDS_FORMAT_VERSION}, "
            f"manifest format {MANIFEST_FORMAT_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate synthetic datasets plus a manifest")
    p_gen.add_argument("config", help="JSON config file")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_cal = sub.add_parser("calibrate", help="calibrate thresholds from a labeled CSV")
    p_cal.add_argument("--cal", required=True, help="calibration CSV (logits or probs)")
    p_cal.add_argument("--alpha", type=float, default=0.1, help="miscoverage level (default 0.1)")
    p_cal.add_argument("--out", required=True, help="thresholds JSON to write")
    p_cal.set_defaults(func=cmd_calibrate)

    p_eval = sub.add_parser("evaluate", help="evaluate a test CSV under saved thresholds")
    p_eval.add_argument("--test", required=True, help="test CSV (logits or probs)")
    p_eval.add_argument("--thresholds", required=True, help="thresholds JSON")
    p_eval.add_argument("--records-out", required=True, help="per-sample records CSV to write")
    p_eval.add_argument("--summary-out", required=True, help="summary file to write (.csv or .json)")
    p_eval.add_argument("--condition", default="", help="condition tag for the samples")
    p_eval.add_argument("--severity", type=int, default=0, help="severity tag for the samples")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser(
        "sweep", help="run the full condition x severity evaluation grid"
    )
    p_sweep.add_argument("config", help="JSON config file")
    p_sweep.add_argument("--out-dir", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # A closed pipe shows here, not at exit, when stdout is buffered.
        sys.stdout.flush()
        return code
    except DegenerateLabelsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError as exc:
        # What stdout still buffers goes nowhere, so the interpreter's own
        # flush at exit does not fail again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no file descriptor behind it
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ArtifactError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
