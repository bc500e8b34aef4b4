"""tools/mutants.py: every listed mutant applies to exactly one place.

The mutants themselves run only under ``python tools/mutants.py``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: f"{m.module}:{m.text}")
def test_text_occurs_once_and_the_replacement_differs(mutant):
    source = mutants.module_path(ROOT, mutant).read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1
    assert mutant.replacement != mutant.text


def test_tests_named_exist():
    assert all((ROOT / name).is_file() for name in mutants.TESTS)
