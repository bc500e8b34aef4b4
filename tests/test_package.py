"""The package's public names and the README's library example."""

import ast
import dataclasses
import inspect
import re
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import dualthresh
from dualthresh import calibration, cli, core, io, prediction

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

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


def test_type_hints_resolve_at_run_time():
    # Every annotation of the public API names something the module
    # imports at run time, so typing.get_type_hints can evaluate it.
    public = [getattr(dualthresh, name) for name in dualthresh.__all__]
    public += [
        f for name, f in vars(io).items()
        if inspect.isfunction(f) and f.__module__ == io.__name__ and not name.startswith("_")
    ]
    unresolved = []
    for obj in filter(callable, public):
        try:
            typing.get_type_hints(obj)
        except NameError:
            unresolved.append(obj.__qualname__)
    assert unresolved == []


def test_package_imports_only_the_stdlib_and_numpy():
    # Every import, function bodies included, is of the standard library,
    # numpy or the package itself, and numpy is the one dependency.
    for source in sorted(Path(dualthresh.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names | {"numpy", "dualthresh"}, (source, name)
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]


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

    # So patching core's constant alone reblocks the kernels and both
    # writers, each called once a block.
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

    assert blocks() == (1, 2)
    monkeypatch.setattr(core, "BLOCK_CELLS", 1)  # blocks of one row
    assert blocks() == (n, 2 * n)


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

    # And only io._open_write makes or changes a file, so what a failed
    # write leaves behind is decided there. cli.main's one write-only
    # open points a closed standard output at os.devnull.
    writers = set()
    for source in sorted(Path(io.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(map(_writes_a_file, ast.walk(node))):
                writers.add(f"{source.stem}.{node.name}")
    assert writers == {"io._open_write", "cli.main"}


def _writes_a_file(node) -> bool:
    """True for a call that may open a file for writing (any ``os.open``),
    writes a whole file through pathlib, or moves one onto another name
    with ``os.replace`` or ``os.rename``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
    if on_os and name in ("open", "replace", "rename") or name in ("write_text", "write_bytes"):
        return True
    # A mode is a string of open's mode letters; one that may write holds
    # w, a, x or +.
    modes = [
        set(a.value) for a in node.args + [k.value for k in node.keywords if k.arg == "mode"]
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    writes = any(m <= set("rwaxbt+") and m & set("wax+") for m in modes)
    return name in ("open", "fdopen") and writes


def test_sweep_spells_each_output_rule_once():
    # _group_outputs alone names a group's records and ROC files, and
    # cmd_sweep moves every earlier file aside before the first condition
    # runs, so neither a condition nor a failure renames or removes a file.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def group_name(node) -> bool:
        return isinstance(node, ast.Constant) and str(node.value).startswith(("records_", "roc_"))

    def calls(node, name) -> bool:
        func = getattr(node, "func", None)
        return getattr(func, "id", None) == name or getattr(func, "attr", None) == name

    def holders(match) -> set:
        return {name for name, node in functions.items() if any(map(match, ast.walk(node)))}

    assert sum(map(group_name, ast.walk(tree))) == 2
    assert holders(group_name) == {"_group_outputs"}
    run_condition = list(ast.walk(functions["_run_condition"]))
    assert not any(isinstance(node, ast.Try) or calls(node, "unlink") for node in run_condition)

    # No finally, and no handler that renames: what a stopped sweep leaves
    # is decided before it runs.
    sweep = functions["cmd_sweep"]
    tries = [node for node in ast.walk(sweep) if isinstance(node, ast.Try)]
    assert not any(node.finalbody for node in tries)
    handlers = [handler for node in tries for handler in node.handlers]
    assert not any(calls(n, "rename") for handler in handlers for n in ast.walk(handler))

    # Every rename is cmd_sweep's, above the loop that runs the conditions.
    loop = next(node for node in ast.walk(sweep) if isinstance(node, ast.For)
                and any(calls(n, "_run_condition") for n in ast.walk(node)))
    renames = [node for node in ast.walk(tree) if calls(node, "rename")]
    assert holders(lambda node: calls(node, "rename")) == {"cmd_sweep"}
    assert renames and all(node.lineno < loop.lineno for node in renames)


def test_logits_are_normalized_a_block_at_a_time():
    # The reader's per-row route through core.softmax stays gone: io
    # names no softmax but the block kernel, and core has no logit
    # validator of its own besides softmax.
    tree = ast.parse(Path(io.__file__).read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "softmax" not in names and "softmax_rows" in names
    assert not hasattr(core, "as_logits")


def test_csv_reader_decodes_once():
    # read_logits_csv decodes each line as it reads it; no second decoder
    # reopens the file to find a bad byte.
    source = Path(io.__file__).read_text(encoding="utf-8")
    assert "_not_utf8" not in source
    assert "utf-8-sig" not in source


def test_thresholds_artifact_is_spelled_once():
    # Its keys are CalibratedThresholds' fields in order, then the format
    # version, which names the scores; created_utc, which no code set,
    # went with format 2.
    names = [f.name for f in dataclasses.fields(calibration.CalibratedThresholds)]
    assert "created_utc" not in names
    assert list(io._THRESHOLDS_FIELDS) == names + ["format_version"]
    assert calibration.THRESHOLDS_FORMAT_VERSION == 2


def test_versioned_artifacts_load_through_one_loader():
    # Both readers check object, version, then keys in one place, and
    # nothing else in io loads JSON.
    tree = ast.parse(Path(io.__file__).read_text(encoding="utf-8"))
    callers = {
        name: {
            fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        }
        for name in ("_load_versioned", "load_json")
    }
    assert callers == {
        "_load_versioned": {"read_thresholds", "read_manifest"},
        "load_json": {"_load_versioned"},
    }


def test_the_sample_id_rule_is_spelled_once():
    # Each of its three messages is written once in src/, inside
    # core.check_sample_id, and a batch and the CSV reader's row loop both
    # check their ids through it.
    messages = [
        r"sample_id must be a str", r"sample_id \{[^}]*\} holds a carriage return",
        r"duplicate sample_id",
    ]
    holders, callers = [], set()
    for source in sorted(Path(dualthresh.__file__).parent.glob("*.py")):
        text = source.read_text(encoding="utf-8")
        tree = ast.parse(text)
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for message in messages:
            for match in re.finditer(message, text):
                line = text.count("\n", 0, match.start()) + 1
                spans = [f for f in functions if f.lineno <= line <= f.end_lineno]
                holders.append((message, source.stem, max(spans, key=lambda f: f.lineno).name))
        for fn in functions:
            if any(
                isinstance(node, ast.Call)
                and "check_sample_id" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))
                for node in ast.walk(fn)
            ):
                callers.add(f"{source.stem}.{fn.name}")
    assert holders == [(message, "core", "check_sample_id") for message in messages]
    assert callers == {"core.__post_init__", "io._record"}
    assert "check_sample_id(" in inspect.getsource(core.SampleBatch.__post_init__)
