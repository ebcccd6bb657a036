"""Line coverage of ``src/grpoagg`` under the tier-1 tests, standard library only.

Runs pytest in this process under ``sys.settrace``, tracing only frames whose
code lies in ``src/grpoagg/*.py``, and prints, sorted, each statement inside a
function or method that never ran, as ``module.py:line``. Module-level code
and class bodies are left out, and so is code that a test runs in a child
process. Extra arguments go to pytest. One run takes a few minutes.

usage: python tools/linecov.py [pytest arguments]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grpoagg"


def _code_lines(code: CodeType) -> set[int]:
    """Every line that carries bytecode in ``code`` or a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def function_lines(path: Path) -> set[int]:
    """The first line of each statement, docstrings aside, that lies inside a
    function or method of ``path`` and carries bytecode."""
    source = path.read_text()
    lines = set()
    for node in ast.walk(ast.parse(source, str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in node.body:
            for inner in ast.walk(stmt):
                docstring = isinstance(inner, ast.Expr) and isinstance(inner.value, ast.Constant)
                if isinstance(inner, ast.stmt) and not docstring:
                    lines.add(inner.lineno)
    return lines & _code_lines(compile(source, str(path), "exec"))


def main(argv: list[str]) -> int:
    modules = {str(path): path.name for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in modules.values()}
    names: dict[str, str | None] = {}  # co_filename -> module name, None outside the package

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in names:
            names[filename] = modules.get(os.path.realpath(filename))
        name = names[filename]
        if name is None:
            return None
        hits = ran[name]
        hits.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [
        f"{name}:{line}"
        for path, name in modules.items()
        for line in sorted(function_lines(Path(path)) - ran[name])
    ]
    print(f"{len(missed)} statement(s) inside functions never ran:")
    print("\n".join(missed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
