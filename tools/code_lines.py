"""Code lines of src/evolalg, per module and in total, with the standard
library alone:

    python tools/code_lines.py

A line counts when some token other than a comment lies on it (a string
that spans lines counts on each line it covers), unless it belongs to a
module, class or function docstring.  Blank lines and comment-only lines
do not count.  This is the size that CHANGES.md and ROADMAP.md cite; the
script prints it and sets no threshold.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "evolalg"

_SILENT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SILENT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(name.ljust(width), "%5d" % count)
    print("total".ljust(width), "%5d" % sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
