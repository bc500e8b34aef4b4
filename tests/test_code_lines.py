"""tools/code_lines.py: the code-line count of each src/dualthresh module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def f(a,
      b):
    """A function docstring."""
    text = """a string
in an expression"""
    return (a +
            b)
'''


def test_counts_code_but_not_docstrings_comments_or_blank_lines():
    # the import, and the two lines each of the def, the string and the return
    assert code_lines.code_lines(MODULE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n'''bare string'''\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     7  a.py\n     1  b.py\n     8  total\n"
