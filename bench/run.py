"""Benchmark for the ``dualthresh`` command line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The package is imported from
``src/`` (nothing is installed); without it the benchmark exits with an
error and prints no result.

Each workload (see ``workloads.py``) writes its inputs from the seed, then
runs its ``dualthresh`` commands over and over for about S seconds, each
command in a fresh process started through ``child.py``. Per pass it
measures, summed over the pass's processes:

* ``wall_s``: first spawn to last exit;
* ``setup_s``: spawn to entering ``cli.main`` (interpreter start plus
  ``import dualthresh.cli``);
* ``run_s``: time inside ``cli.main``;
* ``rows_per_s``: test rows evaluated over ``wall_s``;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of the pass's processes,
  read per child with ``os.wait4``;
* ``error_rate``: failed passes over attempted ones. A pass fails on a
  non-zero exit, on outputs that disagree with the independent check in
  ``check.py`` (first pass), or on outputs whose bytes differ from the
  first pass (later passes).

With ``--trace 0`` the last line reports the medians of the end-to-end
metrics named in ``BENCHMARK.json``. With ``--trace 1`` half of the time
runs untraced and half traced (``tracer.py`` wraps the package's
functions inside the child), and the last line reports the per-layer
metrics, including ``trace.overhead_s``: traced minus untraced median
``run_s``. A traced pass must leave outputs byte-identical to the
untraced ones.

Every run also writes a result file under ``.bench_work/results/`` with
all passes, output digests and provenance; ``compare.py`` diffs two.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"

# A single command that runs longer than this is killed and its pass
# fails, so one hung command cannot stall the run.
COMMAND_TIMEOUT_S = 120.0

# Per-layer metrics read from the spans (names as tracer.span_name gives
# them). Every *_s metric is self time, so together with cli.self_s they
# partition the traced run_s.
READERS = ("cli.read_logits_csv", "cli.read_manifest", "cli.read_thresholds")
EXPORTERS = (
    "cli.write_records_csv", "cli.write_roc_csv", "cli.write_summary",
    "cli.write_thresholds", "cli.write_manifest",
)
ROC = ("calibration.roc_points", "metrics.roc_points")

# End-to-end metrics printed and stored but not listed in BENCHMARK.json:
# error_rate is 0 on correct code (the result line carries it as
# failed/attempted), and rows_per_s is test rows over wall_s, so gating
# it would count the same noise twice.
UNGATED_UNITS = {"rows_per_s": "rows/s", "error_rate": "fraction"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# processes


def _spawn_wait(argv, env, stdout: Path, stderr: Path):
    """Run argv to completion; return (exit code, rusage, exit time).

    The child is killed after COMMAND_TIMEOUT_S, and on any interruption,
    so no process outlives this call.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        argv[0],
        argv,
        env,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
        ],
    )

    def kill(signum, frame):
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        exited = time.monotonic()
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), usage, exited


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_pass(plan, out: Path, logs: Path, traced: bool) -> dict:
    """Run the plan's commands once, each in a fresh process."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = _child_env()
    result = {"traced": traced, "errors": [], "setup_s": 0.0, "run_s": 0.0, "peak_rss_mb": 0.0}
    traces = []
    first_spawn = last_exit = None
    for i, args in enumerate(plan.commands):
        timing_path = logs / f"timing{i}.json"
        trace_path = logs / f"trace{i}.json" if traced else None
        stderr = logs / f"stderr{i}.txt"
        timing_path.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), str(timing_path), str(trace_path or "-"), *args]
        spawned = time.monotonic()
        rc, usage, last_exit = _spawn_wait(argv, env, logs / f"stdout{i}.txt", stderr)
        if first_spawn is None:
            first_spawn = spawned
        result["peak_rss_mb"] = max(result["peak_rss_mb"], usage.ru_maxrss / 1024.0)
        if rc != 0 or not timing_path.exists():
            result["errors"].append(f"`dualthresh {args[0]}` exited {rc}: {_last_line(stderr)}")
            break
        timing = json.loads(timing_path.read_text(encoding="utf-8"))
        if not Path(timing["package"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"dualthresh was imported from {timing['package']}, not {SRC}")
        if timing["tracer_loaded"] != traced:
            result["errors"].append(f"tracer loaded={timing['tracer_loaded']} in a traced={traced} pass")
        result["setup_s"] += timing["main_start"] - spawned
        result["run_s"] += timing["main_end"] - timing["main_start"]
        if traced:
            traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
    result["wall_s"] = last_exit - first_spawn
    result["rows_per_s"] = plan.test_rows / result["wall_s"]
    if traced and not result["errors"]:
        result["layers"], result["absent"] = _layer_metrics(traces, result["run_s"])
    return result


# ---------------------------------------------------------------------------
# per-layer metrics


def _file_rows_and_k(path: str) -> tuple[int, int]:
    with open(path, "rb") as fh:
        header = fh.readline()
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return rows, header.count(b",") - 1


def _layer_metrics(traces, run_s: float) -> tuple[dict, list]:
    import tracer

    agg: dict[str, dict] = {}
    covered = 0.0
    absent = set()
    for doc in traces:
        covered += tracer.top_level_s(doc["spans"])
        absent.update(doc["absent"])
        for name, row in tracer.aggregate(doc["spans"]).items():
            total = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0, "paths": []})
            for key in ("calls", "self_s", "count"):
                total[key] += row[key]
            total["paths"] += row["paths"]

    def get(key, *names):
        return sum(agg.get(n, {}).get(key, 0) for n in names)

    def paths(*names):
        return [p for n in names for p in agg.get(n, {}).get("paths", [])]

    def size(*names):
        return sum(os.path.getsize(p) for p in paths(*names))

    read = [_file_rows_and_k(p) for p in paths("cli.read_logits_csv")]
    csv_read_s = get("self_s", "cli.read_logits_csv")
    groups = get("calls", "cli.evaluate_samples")
    layers = {
        "core.validate_s": get("self_s", "core.as_probabilities"),
        "core.validate_calls": get("calls", "core.as_probabilities"),
        "core.softmax_s": get("self_s", "core.softmax"),
        "core.softmax_calls": get("calls", "core.softmax"),
        "io.read_s": get("self_s", *READERS),
        "io.read_rows": sum(rows for rows, _ in read),
        "io.read_cells_per_s": (
            sum(rows * k for rows, k in read) / csv_read_s if csv_read_s > 0 else 0.0
        ),
        "datagen.generate_s": get("self_s", "cli.generate_dataset"),
        "datagen.rows": get("count", "cli.generate_dataset"),
        "datagen.signal_strength_s": get("self_s", "datagen.signal_strength"),
        "io.write_samples_s": get("self_s", "cli.write_samples_csv"),
        "io.write_samples_bytes": size("cli.write_samples_csv"),
        "calibration.calibrate_s": get("self_s", "cli.calibrate"),
        "calibration.calibrate_rows": get("count", "cli.calibrate"),
        "calibration.roc_points_s": get("self_s", *ROC),
        "calibration.roc_points_calls": get("calls", *ROC),
        "metrics.roc_per_group": (
            get("calls", "metrics.roc_points") / groups if groups else 0.0
        ),
        "prediction.evaluate_s": get("self_s", "cli.evaluate_samples"),
        "prediction.evaluate_rows": get("count", "cli.evaluate_samples"),
        "metrics.summarize_s": get("self_s", "cli.summarize"),
        "metrics.detection_auc_s": get("self_s", "cli.detection_auc", "metrics.detection_auc"),
        "io.export_s": get("self_s", *EXPORTERS),
        "io.export_bytes": size(*EXPORTERS),
        "cli.self_s": run_s - covered,
    }
    return layers, sorted(absent)


# ---------------------------------------------------------------------------
# provenance


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {
            "sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    return {
        **_git(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


# ---------------------------------------------------------------------------
# one workload


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _digest_errors(got: dict, want: dict) -> list[str]:
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    if not changed:
        return []
    return [f"outputs differ from the first pass: {', '.join(changed[:5])}"]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, out, logs = work / "inputs", work / "out", work / "logs"
    for d in (inputs, logs):
        d.mkdir(parents=True)
    try:
        plan = WORKLOADS[name](inputs, out, seed)
        # Warm the page cache and write src/ bytecode once, untimed: an
        # installed package has both before its first real call.
        _spawn_wait(
            [sys.executable, str(CHILD), str(logs / "warm.json"), "-", "--version"],
            _child_env(), logs / "warm.out", logs / "warm.err",
        )

        passes, reference = [], None
        phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
        for traced, budget in phases:
            start = time.monotonic()
            while True:
                p = run_pass(plan, out, logs, traced)
                if not p["errors"]:
                    digests = check.digests(out)
                    if reference is None:
                        reference = {"digests": digests, "errors": plan.check(out)}
                        p["errors"] = reference["errors"]
                    else:
                        p["errors"] = _digest_errors(digests, reference["digests"]) or reference["errors"]
                passes.append(p)
                # Stop when one more pass like the last would overrun.
                if time.monotonic() - start + p["wall_s"] > budget:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    metrics = {k: _median(untraced, k) for k in ("wall_s", "setup_s", "run_s", "rows_per_s", "peak_rss_mb")}
    failed = sum(1 for p in passes if p["errors"])
    metrics["error_rate"] = failed / len(passes)
    layers = None
    traced_ok = [p for p in passes if p["traced"] and "layers" in p]
    if traced_ok:
        layers = {k: statistics.median(p["layers"][k] for p in traced_ok) for k in traced_ok[0]["layers"]}
        layers["trace.overhead_s"] = _median(traced_ok, "run_s") - metrics["run_s"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": plan.inputs,
        "test_rows": plan.test_rows,
        "attempted": len(passes),
        "failed": failed,
        "errors": sorted({e for p in passes for e in p["errors"]}),
        "metrics": metrics,
        "layers": layers,
        "absent": sorted({a for p in traced_ok for a in p["absent"]}),
        "digests": reference["digests"] if reference else {},
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }


# ---------------------------------------------------------------------------
# command line


def _registry() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _report(result: dict, registry: dict) -> dict:
    """Print one workload's metrics by name with units; return the ones
    BENCHMARK.json lists for this mode, in its result-line form."""
    units = {m["name"]: m["unit"] for m in registry["end_to_end"] + registry["per_layer"]}
    units.update(UNGATED_UNITS)
    values = (result["layers"] or {}) if result["trace"] else result["metrics"]
    print(f"{result['workload']}  seed={result['seed']}  passes={result['attempted']}  failed={result['failed']}")
    for key, value in {**result["metrics"], **values}.items():
        print(f"  {key:<30} {value:>16.6f} {units[key]}")
    for error in result["errors"]:
        print(f"  error: {error}")
    section = registry["per_layer" if result["trace"] else "end_to_end"]
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in section
        if m["name"] in values
    }


def _terminate(signum, frame):
    # Unwind through _spawn_wait's finally, which kills and reaps the child.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dualthresh" / "cli.py").is_file():
        print(f"error: no dualthresh sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    registry = _registry()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance()
    results, reported = [], {}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            results.append(result)
            metrics = _report(result, registry)
            reported.update(
                metrics if len(names) == 1 else {f"{name}.{k}": v for k, v in metrics.items()}
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov["loadavg_end"] = _loadavg()

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        path = results_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"provenance": prov, **result}, indent=1), encoding="utf-8")
        print(f"result file: {path.relative_to(ROOT)}")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    expected = len(names) * len(registry["per_layer" if args.trace else "end_to_end"])
    correct = failed == 0 and len(reported) == expected
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
