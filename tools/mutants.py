"""Check that the statistics tests notice one-token changes to the code
they guard.

Each entry of ``MUTANTS`` names a ``src/dualthresh`` module, a source text
that occurs exactly once in it, its replacement, and the guarantee the
change breaks. The script copies ``src/``, ``tests/``, ``pyproject.toml``
and ``README.md`` to a temporary directory, runs ``TESTS`` there once
unchanged (they must pass), then applies each mutant in turn and runs
``TESTS`` with ``-x``, one pytest process at a time. A mutant is killed
when pytest fails. Each mutant gets a line: killed or survived, and the
seconds its run took.

The exit code is 1 when a mutant survives, unless its entry is marked
equivalent with the reason the tests cannot tell it apart; 2 when the
unchanged tests fail or a source text does not occur exactly once.

Usage::

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

TESTS = tuple(
    f"tests/test_{name}.py"
    for name in ("calibration", "prediction", "metrics", "core", "acceptance", "io")
)


class Mutant(NamedTuple):
    module: str
    text: str
    replacement: str
    breaks: str
    equivalent: str = ""  # why no test can kill it; empty when one must


MUTANTS = (
    Mutant("calibration", "-(-(n + 1) * (den - num) // den)", "(n + 1) * (den - num) // den",
           "the conformal rank is the ceiling of (n + 1)(1 - alpha), not its floor"),
    Mutant("calibration", "if rank > n:", "if rank >= n:",
           "q_conf is the inf sentinel only when the rank passes n"),
    Mutant("calibration", "j_scaled == j_scaled.max())[-1]", "j_scaled == j_scaled.max())[0]",
           "Youden ties go to the smallest tau, not the largest"),
    Mutant("prediction", "scores <= thresholds.q_conf", "scores < thresholds.q_conf",
           "a label whose score equals q_conf is in the prediction set"),
    Mutant("prediction", "score_top1 > thresholds.q_abs", "score_top1 >= thresholds.q_abs",
           "a top-1 score equal to q_abs does not abstain"),
    Mutant("core", "PROB_EPSILON = 1e-12", "PROB_EPSILON = 1e-10",
           "scores clamp probabilities at 1e-12"),
    Mutant("calibration", 'kind="stable"', 'kind="quicksort"',
           "the ROC sort keeps tied scores in input order"),
    Mutant("core", "_SUM_ORDER_SLACK = 2.0**-50", "_SUM_ORDER_SLACK = 0.0",
           "a row's sum is accepted whatever order its entries are added in"),
    Mutant("calibration", "auc = float(np.trapezoid(tpr, fpr))", "auc = 0.5",
           "the AUC is the area under the ROC polyline"),
    Mutant("core", "PROB_SUM_TOL = 1e-6", "PROB_SUM_TOL = 1e-5",
           "a row's sum is within the documented 1e-6 of 1"),
    Mutant("metrics", "0 < n_flagged < n", "0 <= n_flagged < n",
           "a group without a top-1 error has no AUC, not a failed ROC"),
    Mutant("metrics", "float(np.mean(ev.abstained))", "float(np.mean(ev.should_abstain))",
           "the abstention rate counts the rule's verdicts, not the top-1 errors"),
    Mutant("metrics", "roc_points(ev.score_top1, ev.should_abstain)",
           "roc_points(ev.score_top1, ev.abstained)",
           "the detection AUC ranks the top-1 score against the top-1 errors"),
)


def module_path(root: Path, mutant: Mutant) -> Path:
    return root / "src" / "dualthresh" / f"{mutant.module}.py"


def _pytest(root: Path) -> tuple[bool, float]:
    """Run ``TESTS`` with ``-x`` in ``root``; return whether they passed
    and the seconds they took. No bytecode is cached, so a module restored
    within the second it was mutated is never run from a stale cache."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0, time.perf_counter() - start


def main() -> int:
    for m in MUTANTS:
        count = module_path(ROOT, m).read_text(encoding="utf-8").count(m.text)
        if count != 1:
            print(f"error: {m.text!r} occurs {count} times in {m.module}.py", file=sys.stderr)
            return 2
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, work / name)
        passed, seconds = _pytest(work)
        print(f"unchanged: {'passed' if passed else 'FAILED'} in {seconds:.1f} s")
        if not passed:
            return 2
        for m in MUTANTS:
            path = module_path(work, m)
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(m.text, m.replacement), encoding="utf-8")
            survived, seconds = _pytest(work)
            path.write_text(source, encoding="utf-8")
            verdict = "survived" if survived else "killed"
            if survived and m.equivalent:
                verdict += f" (equivalent: {m.equivalent})"
            elif survived:
                survivors += 1
            print(f"{verdict:>8} in {seconds:5.1f} s  {m.module}: {m.text!r} -> {m.replacement!r}"
                  f"  [{m.breaks}]")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed or equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
