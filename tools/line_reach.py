"""Line reach of the tier-1 tests over src/evolalg, with the standard
library alone (no coverage package):

    python tools/line_reach.py

Runs the tier-1 suite in this process under sys.settrace, recording the
lines executed in the files of src/evolalg, and lists every line inside a
function (a def, lambda or comprehension body) that no test reaches.
Exits 1 when a tier-1 test fails or a line is unreached; else 0.  The
tracer makes the suite about 2.4 times slower (89 s against 37 s on a
2-vCPU VM), so this is a separate CI step, not a tier-1 test.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "evolalg"

def function_lines(path: Path) -> set[int]:
    """The lines of path that hold bytecode of a function body: every code
    object with its own locals (functions, lambdas, comprehensions), less
    the first line of each, which runs when the def runs, not the call."""
    lines, stack = set(), [compile(path.read_bytes(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines |= {line for _, _, line in code.co_lines()
                      if line is not None and line != code.co_firstlineno}
    return lines


def traced_run(files: set[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit code, {file: lines executed}) of the tier-1 suite,
    tracing only the frames of files."""
    reached = {name: set() for name in files}
    where = {}  # each code file name, as imported, -> its set in reached

    def local(frame, event, _):
        if event == "line":
            where[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, _):
        name = frame.f_code.co_filename
        if name not in where:
            where[name] = reached.get(os.path.realpath(name))
        return local if where[name] is not None else None

    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(code), reached


def main() -> int:
    sources = {os.path.realpath(path): path for path in sorted(SRC.glob("*.py"))}
    code, reached = traced_run(set(sources))
    if code:
        print("line_reach: tier-1 failed (pytest exit %d)" % code)
        return 1
    unreached, total = set(), 0
    for name, path in sources.items():
        lines = function_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        unreached |= {(path.name, lineno, text[lineno - 1].strip())
                      for lineno in lines - reached[name]}
    print("line_reach: %d of %d lines inside functions reached"
          % (total - len(unreached), total))
    for file, lineno, line in sorted(unreached):
        print("UNREACHED src/evolalg/%s:%d: %s" % (file, lineno, line))
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
