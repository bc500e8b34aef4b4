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
    check_alpha,
)
from .core import DegenerateLabelsError, check_tags
from .datagen import GeneratorConfig, derive_seed, generate_dataset
from .io import (
    CONDITION,
    INTEGER,
    MANIFEST_FORMAT_VERSION,
    NUMBER,
    SEVERITY,
    ArtifactError,
    DatasetManifest,
    ManifestCondition,
    accepts,
    check_fields,
    is_int,
    load_json,
    read_logits_csv,
    read_manifest,
    read_thresholds,
    remove_temporaries,
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


def _distinct_list(item):
    """The JSON type of a non-empty list of distinct ``item`` values."""
    phrase, ok = item
    return (
        f"a non-empty list of distinct values, each {phrase}",
        # Each item is checked before the set hashes it.
        lambda v: isinstance(v, list) and all(map(ok, v)) and 0 < len(set(v)) == len(v),
    )


# The JSON type and rule of each config key; the generator keys live under
# the "generator" object, and GeneratorConfig checks their values.
_TOP_KEY_TYPES = {
    "alpha": ("a number in (0, 1)", lambda v: NUMBER[1](v) and accepts(check_alpha, v)),
    "conditions": _distinct_list(CONDITION),
    "severities": _distinct_list(SEVERITY),
    "seed": INTEGER,
    "n_calibration": ("an integer >= 1", lambda v: is_int(v) and v >= 1),
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
    """Parsed sweep/generation configuration file, whose values
    ``from_file`` checks against the key tables above.

    ``generator`` is the template every generated file is drawn from: its
    ``n_samples`` sizes each test file, and ``file_config`` replaces its
    size, severity, seed and condition per file.
    """

    alpha: float = 0.1
    conditions: tuple[str, ...] = DEFAULT_CONDITIONS
    severities: tuple[int, ...] = DEFAULT_SEVERITIES
    seed: int = 2024
    n_calibration: int = 500
    generator: GeneratorConfig = DEFAULT_GENERATOR
    manifest: Optional[str] = None

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        doc = check_fields(f"{path}: config", load_json(path), _TOP_KEY_TYPES)
        gen = check_fields(f"{path}: config generator", doc.pop("generator", {}), _GEN_KEY_TYPES)
        try:
            generator = replace(DEFAULT_GENERATOR, **gen)
        except (OverflowError, ValueError) as exc:
            raise ArtifactError(f"{path}: config generator: {exc}") from None
        for key in ("conditions", "severities"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc, generator=generator)

    def file_config(self, condition: str, severity: Optional[int]) -> GeneratorConfig:
        """The generator of one data file of ``condition``: with severity
        None its calibration file, else its test file of that severity."""
        if severity is None:
            n, severity, seed = self.n_calibration, 0, derive_seed(self.seed, condition, "cal")
        else:
            n, seed = self.generator.n_samples, derive_seed(self.seed, condition, "test", severity)
        return replace(
            self.generator, n_samples=n, severity=severity, seed=seed, condition=condition
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


def _data_files(cfg: SweepConfig) -> dict[str, dict[Optional[int], str]]:
    """Map each condition, in config order, to the names of its generated
    files by severity, the calibration file first under None."""
    slugs = _slugs(cfg.conditions)
    tails = {None: "cal", **{sev: f"s{sev}" for sev in cfg.severities}}
    return {c: {s: f"{slugs[c]}_{t}.csv" for s, t in tails.items()} for c in cfg.conditions}


def _tree_outputs(cfg: SweepConfig, out: Path, flag: str) -> list:
    """The files ``_generate_tree(cfg, out)`` writes, as ``_check_files``
    outputs of the directory flag ``flag``."""
    names = [name for files in _data_files(cfg).values() for name in files.values()]
    return [(flag, out / name, "generated data") for name in names + ["manifest.json"]]


def _check_flags(check, *values) -> None:
    """Run ``check`` on flag values; its ValueError, whose message starts
    with the field it checks, is re-raised with the field named as its
    flag."""
    try:
        check(*values)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None


def _check_files(inputs, outputs) -> None:
    """Refuse an output naming the same file, after symbolic links and
    ``..`` are resolved, as an input or an earlier output. Each item is
    ``(flag, path, what the file holds)``; outputs come in the order they
    are written. Each path is resolved once."""
    files = {}
    for item in inputs:
        files.setdefault(os.path.realpath(item[1]), item)
    for item in outputs:
        first = files.setdefault(os.path.realpath(item[1]), item)
        if first is not item:
            raise ValueError(
                f"{first[0]} and {item[0]} name the same file {first[1]!r}; "
                f"the {item[2]} would overwrite the {first[2]}"
            )


def _calibrated(samples, alpha: float) -> CalibratedThresholds:
    """The thresholds ``calibrate`` places on ``samples`` at ``alpha``,
    with a warning on standard error when ``q_conf`` is the inf sentinel."""
    thresholds = calibrate(samples, alpha)
    if thresholds.q_conf == float("inf"):
        print(
            "warning: q_conf=inf (alpha below 1/(n+1)); prediction sets will "
            "contain every label and coverage holds vacuously",
            file=sys.stderr,
        )
    return thresholds


def _report(thresholds: CalibratedThresholds) -> list[str]:
    """The ``name=value`` cells that report ``thresholds``."""
    return [
        f"q_conf={thresholds.q_conf:.6f}", f"q_abs={thresholds.q_abs:.6f}",
        f"youden_j={thresholds.youden_j:.6f}", f"n={thresholds.n_calibration}",
    ]


# ---------------------------------------------------------------------------
# gen


def _generate_tree(cfg: SweepConfig, out: Path, quiet: bool = False) -> Path:
    """Write the ``_data_files`` of ``cfg`` under ``out`` plus a manifest;
    return the manifest path."""
    files = _data_files(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for cond, names in files.items():
        for sev, name in names.items():
            samples = generate_dataset(cfg.file_config(cond, sev))
            write_samples_csv(samples, out / name)
            if not quiet:
                print(f"wrote {out / name} ({len(samples)} samples)")

    manifest_path = out / "manifest.json"
    conditions = (ManifestCondition(c, n[None], tuple(n.items())[1:]) for c, n in files.items())
    write_manifest(DatasetManifest(cfg.generator.k_classes, tuple(conditions)), manifest_path)
    if not quiet:
        print(f"wrote {manifest_path} ({sum(map(len, files.values()))} files)")
    return manifest_path


def cmd_gen(args) -> int:
    cfg, out = SweepConfig.from_file(args.config), Path(args.out)
    outputs = _tree_outputs(cfg, out, "--out")
    _check_files([("the config", args.config, "config")], outputs)
    remove_temporaries(path for _, path, _ in outputs)
    _generate_tree(cfg, out)
    return 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> int:
    _check_flags(check_alpha, args.alpha)
    _check_files(
        [("--cal", args.cal, "calibration data")], [("--out", args.out, "thresholds")]
    )
    thresholds = _calibrated(read_logits_csv(args.cal), args.alpha)
    write_thresholds(thresholds, args.out)
    print(*_report(thresholds), sep="\n")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    _check_flags(check_tags, args.condition, args.severity)
    _check_files(
        [("--test", args.test, "test data"), ("--thresholds", args.thresholds, "thresholds")],
        [("--records-out", args.records_out, "records"),
         ("--summary-out", args.summary_out, "summary")],
    )
    thresholds = read_thresholds(args.thresholds)
    # The rows go straight into evaluation, so they are freed before the
    # export; only the per-row outputs stay.
    ev = evaluate_samples(
        read_logits_csv(args.test, condition=args.condition, severity=args.severity),
        thresholds,
    )
    write_records_csv(ev, args.records_out)
    fmt = "json" if str(args.summary_out).lower().endswith(".json") else "csv"
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


def _group_outputs(out: Path, slug: str, severity: int) -> tuple[Path, Path]:
    """The records and ROC files of one (condition, severity) group."""
    return out / f"records_{slug}_s{severity}.csv", out / f"roc_{slug}_s{severity}.csv"


def _run_condition(
    alpha: float, k_classes: int, group: ManifestCondition, slug: str, out: Path,
    summaries: list,
) -> None:
    """Calibrate one condition on its calibration file, then read, evaluate
    and export its test files one at a time to ``_group_outputs``, printing
    a line per step and appending each group's summary to ``summaries``. A
    group with no AUC gets no ROC file."""
    cond = group.condition
    thresholds = _calibrated(_read_manifest_file(group.calibration, cond, 0, k_classes), alpha)
    print(f"[{cond}]", *_report(thresholds))

    for sev, path in group.tests:
        ev = evaluate_samples(_read_manifest_file(path, cond, sev, k_classes), thresholds)
        rec_path, roc_path = _group_outputs(out, slug, sev)
        write_records_csv(ev, rec_path)

        summary = summarize(ev)
        if summary.auc is not None:
            write_roc_csv(detection_auc(ev), roc_path)
        summaries.append(summary)
        print(
            f"[{cond}] severity {sev}: n={summary.n} "
            f"coverage={summary.coverage:.4f} "
            f"abstention={summary.abstention_rate:.4f}"
        )


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_file(args.config)
    out = Path(args.out_dir)
    inputs, data = [("the config", args.config, "config")], []

    # Data always flows through the CSV ingestion path, whether freshly
    # generated or supplied via a manifest; a one-group sweep is then
    # byte-for-byte the calibrate + evaluate pipeline.
    if cfg.manifest is None:
        groups = dict.fromkeys(cfg.conditions, cfg.severities)
        data = _tree_outputs(cfg, out / "data", "--out-dir")
    else:
        manifest_path = Path(cfg.manifest)
        if not manifest_path.is_absolute():
            manifest_path = Path(args.config).resolve().parent / manifest_path
        manifest = read_manifest(manifest_path)
        groups = {g.condition: [sev for sev, _ in g.tests] for g in manifest.conditions}
        inputs += [("the manifest", str(manifest_path), "manifest")] + [
            ("a manifest file", path, "data")
            for g in manifest.conditions for path in [g.calibration, *dict(g.tests).values()]
        ]
    slugs = _slugs(groups)
    # Every output name this run owns, the three summaries last. At every
    # instant a final name holds only a file this run finished, and its
    # NAME.partial the file an earlier run left under NAME: before anything
    # is written, each such file moves aside. An input under one of these
    # names or a generated data file's, or a NAME.partial that is not a
    # regular file, is refused first; then the temporaries a killed run
    # left for any of them go.
    names = [p for c in groups for s in groups[c] for p in _group_outputs(out, slugs[c], s)]
    names += [out / "summary.csv", out / "summary.json", out / "heatmap.csv"]
    partials = [p.with_name(p.name + ".partial") for p in names]
    _check_files(inputs, data + [("--out-dir", p, "sweep output") for p in names + partials])
    for partial in partials:
        if partial.exists() and not partial.is_file():
            raise ValueError(f"{partial} is not a regular file; earlier outputs move there")
    remove_temporaries([path for _, path, _ in data] + names + partials)
    for path, partial in zip(names, partials):
        if path.is_file():
            path.rename(partial)

    if cfg.manifest is None:
        manifest = read_manifest(_generate_tree(cfg, out / "data", quiet=True))
        print(f"generated dataset under {out / 'data'}")
    out.mkdir(parents=True, exist_ok=True)
    all_summaries: list[EvaluationSummary] = []
    failures = {}
    for group in manifest.conditions:
        slug = slugs[group.condition]
        try:
            _run_condition(cfg.alpha, manifest.k_classes, group, slug, out, all_summaries)
        except BrokenPipeError:  # stdout is gone: no later condition can report
            raise
        except Exception as exc:
            failures[group.condition] = exc  # reported per condition; sweep continues
    # Written on every run, a header alone when no group finished, and under
    # the .partial names when a condition failed.
    summaries = (partials if failures else names)[-3:]
    write_summary(all_summaries, summaries[0], format="csv")
    write_summary(all_summaries, summaries[1], format="json")
    write_heatmap(all_summaries, summaries[2])
    if not failures:
        for partial in partials:
            partial.unlink(missing_ok=True)
    for path in summaries:
        print(f"wrote {path}")

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
    p_eval.add_argument("--summary-out", required=True, help="summary: .csv, or .json in any case")
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
    except (ValueError, OSError, MemoryError) as exc:  # ParseError and ArtifactError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
