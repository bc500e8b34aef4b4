"""Count the code lines of each ``src/dualthresh`` module: no comments,
blank lines or docstrings.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, or a string that opens a statement (a docstring, or any
other bare string statement). A token spanning several lines, such as a
triple-quoted string inside an expression, counts on each of them.

Usage::

    python tools/code_lines.py            # src/dualthresh
    python tools/code_lines.py DIR        # every *.py directly in DIR
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    opens = True  # the next code token is the first of a statement
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            opens = True
        if tok.type in _SKIP:
            continue
        if not (tok.type == tokenize.STRING and opens):
            lines.update(range(tok.start[0], tok.end[0] + 1))
        opens = False
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "dualthresh"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
