"""Span recorder for the traced benchmark run.

The recorder replaces functions of the ``dualthresh`` package with
wrappers that record a span per call: name, start, end, the index of the
enclosing span, and a work count. Spans stay in memory and are written
out once, after ``cli.main`` returns. The package itself is not changed;
wrapping happens by attribute assignment on the module that looks the
name up, so a call is seen exactly when it goes through that module.

Only the traced run imports this module. The spans assume one thread,
which holds because every workload runs with the default ``--jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from time import perf_counter


def _arg(index, keyword):
    """Pick an argument by position or keyword from a call."""

    def pick(args, kwargs, result):
        return args[index] if len(args) > index else kwargs[keyword]

    return pick


def _result(args, kwargs, result):
    return result


def _length(pick):
    return lambda args, kwargs, result: len(pick(args, kwargs, result))


def _path(pick):
    return lambda args, kwargs, result: str(pick(args, kwargs, result))


# (module, attribute, what the span records beside its times). A work
# count is an int; a file path is kept as a string and sized after the
# run, so no file is touched while a span is open.
TARGETS = (
    ("dualthresh.cli", "generate_dataset", _length(_result)),
    ("dualthresh.cli", "write_samples_csv", _path(_arg(1, "path"))),
    ("dualthresh.cli", "write_manifest", _path(_arg(1, "path"))),
    ("dualthresh.cli", "read_manifest", None),
    ("dualthresh.cli", "read_logits_csv", _path(_arg(0, "path"))),
    ("dualthresh.cli", "read_thresholds", None),
    ("dualthresh.cli", "calibrate", _length(_arg(0, "samples"))),
    ("dualthresh.cli", "evaluate_samples", _length(_arg(0, "samples"))),
    ("dualthresh.cli", "summarize", None),
    ("dualthresh.cli", "detection_auc", None),
    ("dualthresh.cli", "write_records_csv", _path(_arg(1, "path"))),
    ("dualthresh.cli", "write_roc_csv", _path(_arg(1, "path"))),
    ("dualthresh.cli", "write_summary", _path(_arg(1, "path"))),
    ("dualthresh.cli", "write_thresholds", _path(_arg(1, "path"))),
    ("dualthresh.core", "as_probabilities", None),
    ("dualthresh.core", "softmax", None),
    ("dualthresh.datagen", "signal_strength", None),
    ("dualthresh.calibration", "roc_points", None),
    ("dualthresh.metrics", "roc_points", None),
    ("dualthresh.metrics", "detection_auc", None),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records nested call spans: name, start, end, enclosing span, note.

    Times and parents live in flat arrays rather than one object per
    span, so recording creates nothing the garbage collector has to
    scan; ``spans()`` builds the ``[name, start, end, parent, note]``
    lists once the run is over. ``parent`` is the index of the enclosing
    span or -1; ``note`` is the work count or file path the target asked
    for, or None.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.notes: dict[int, object] = {}
        self.absent: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        code = len(self.names)
        self.names.append(name)
        name_of, starts, ends, parents = self.name_of, self.starts, self.ends, self.parents
        notes, open_ = self.notes, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_of.append(code)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                open_.pop()
            if note is not None:
                try:
                    notes[index] = note(args, kwargs, result)
                except (IndexError, KeyError, TypeError):
                    pass  # the signature changed; the span keeps its times
            return result

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; return the names that could not be found.

        A missing module or attribute is recorded in ``absent`` instead of
        failing, so the benchmark keeps working when the package's
        internals move.
        """
        for module_name, attr, note in targets:
            name = span_name(module_name, attr)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            setattr(module, attr, self.wrap(name, fn, note))
        return self.absent

    def spans(self) -> list[list]:
        return [
            [self.names[code], start, end, parent, self.notes.get(i)]
            for i, (code, start, end, parent) in enumerate(
                zip(self.name_of, self.starts, self.ends, self.parents)
            )
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans(), "absent": self.absent}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest properly, so direct children never overlap
    and their durations add up.
    """
    own = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += own[i]
    return [d - c for d, c in zip(own, covered)]


def aggregate(spans) -> dict:
    """Per span name: calls, total and self seconds, summed int notes and
    the list of path notes."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, note = span
        row = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "paths": []}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        if isinstance(note, int):
            row["count"] += note
        elif isinstance(note, str):
            row["paths"].append(note)
    return out


def top_level_s(spans) -> float:
    """Time covered by spans that have no enclosing span."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
