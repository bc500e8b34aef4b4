"""The package's public names and the README's library example."""

import re
from pathlib import Path

import dualthresh

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "CalibratedThresholds",
    "DegenerateLabelsError",
    "EvaluationSummary",
    "Evaluations",
    "GeneratorConfig",
    "RocCurve",
    "SampleBatch",
    "__version__",
    "abstention_threshold",
    "as_logits",
    "as_probabilities",
    "calibrate",
    "conformal_threshold",
    "derive_seed",
    "detection_auc",
    "evaluate_samples",
    "exchangeable_split",
    "generate_dataset",
    "roc_points",
    "signal_strength",
    "softmax",
    "summarize",
]


def test_public_names_are_exactly_these_and_resolve():
    assert sorted(dualthresh.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(dualthresh, name)


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    coverage_line, summary_line = capsys.readouterr().out.splitlines()
    assert len(coverage_line.split()) == 3
    assert summary_line.startswith("EvaluationSummary(condition='', severity=0, n=1000,")
