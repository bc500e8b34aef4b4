"""The package's public names and the README's library example."""

import ast
import re
from pathlib import Path

import numpy as np

import dualthresh
from dualthresh import calibration, core, io, prediction

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


def test_core_block_rows_alone_sizes_every_block(tmp_path, monkeypatch):
    # The rule "about BLOCK_CELLS cells, at least one row" is spelled once.
    for module in (calibration, prediction, io):
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert not re.search(r"\bBLOCK_CELLS\b", source), module.__name__
    assert "RECORD_BLOCK_ROWS" not in Path(io.__file__).read_text(encoding="utf-8")

    # So patching core's constant alone reblocks the kernels, called once
    # a block, and both writers, which quote each block twice: once to
    # check it before the file is opened, once to write it.
    calls = []
    for module, name in ((prediction, "nonconformity_scores"), (io, "_text_cells")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, n=name, f=real: calls.append(n) or f(*a))
    n, k = 6, 3
    ids = [f"s{i}" for i in range(n)]
    samples = core.SampleBatch(ids, np.arange(n) % k, np.full((n, k), 1 / k))
    thresholds = calibration.CalibratedThresholds(
        q_conf=1.0, q_abs=0.5, alpha=0.1, n_calibration=10, youden_j=0.5, k_classes=k
    )

    def blocks():
        calls.clear()
        ev = prediction.evaluate_samples(samples, thresholds)
        io.write_records_csv(ev, tmp_path / "records.csv")  # one more call quotes the tag
        io.write_samples_csv(samples, tmp_path / "samples.csv")
        return calls.count("nonconformity_scores"), calls.count("_text_cells") - 1

    assert blocks() == (1, 4)
    monkeypatch.setattr(core, "BLOCK_CELLS", 1)  # blocks of one row
    assert blocks() == (n, 4 * n)


def test_io_writers_quote_by_one_rule():
    # io._text_cells spells the CSV quoting rule; csv is left to the reader.
    source = Path(io.__file__).read_text(encoding="utf-8")
    assert "csv.writer" not in source
    assert "StringIO" not in source


def test_one_streamed_csv_writer():
    # Every per-row CSV, the ROC curve's too, streams through
    # io._write_rows; only the three writers open a file.
    tree = ast.parse(Path(io.__file__).read_text(encoding="utf-8"))
    openers = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_open_write"
    }
    assert openers == {"_write_rows", "_write_csv", "_write_json"}
    assert not hasattr(calibration.RocCurve, "points")


def test_csv_reader_decodes_once():
    # read_logits_csv decodes each line as it reads it; no second decoder
    # reopens the file to find a bad byte.
    source = Path(io.__file__).read_text(encoding="utf-8")
    assert "_not_utf8" not in source
    assert "utf-8-sig" not in source
