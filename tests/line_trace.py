"""List the statement lines of src/capslice that no tier-1 test executes.

A stdlib stand-in for a coverage report: it runs the test suite in this
process through pytest.main under sys.settrace, records every line executed
in a file under src/capslice, and prints each statement line that never ran,
as path:line: source, followed by a count.  Docstrings are not statements
here, and neither is a statement that compiles to no bytecode of its own.
Code run in a subprocess (the CLI tests that start `python -m capslice.cli`)
is not seen.

Run from the repository root; arguments go to pytest:

    PYTHONPATH=src python tests/line_trace.py -q -p no:cacheprovider

The name does not match pytest's test file pattern, so the suite never
collects this file.  Tracing slows the suite about fourfold.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "capslice"


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statement_lines(path: Path) -> set[int]:
    """The first line of every statement of a source file that compiles to
    bytecode on that line, docstrings left out."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    compiled = _code_lines(compile(source, str(path), "exec"))
    return (starts & compiled) - _docstring_lines(tree)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(trace)
    try:
        code = pytest.main([str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for n in sorted(statement_lines(path) - hit.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
            missed += 1
    print(f"{missed} statement lines of src/capslice executed by no test")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
