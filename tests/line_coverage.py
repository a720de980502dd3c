"""Line coverage of `src/cellfree_sim` under the Tier-1 suite, with the stdlib only.

    python tests/line_coverage.py [extra pytest arguments]

Runs the suite in this process under a `sys.settrace`/`threading.settrace`
tracer that records the line events of the package's files, then prints how
many executable statements there are and each one that no test reached.

Executable statements come from `ast`: every statement except docstrings. A
simple statement counts as reached when any of its lines got a line event; a
compound one (def, class, if, for, while, try, with) when a line of its
header did, from its first line (decorators included) up to the line before
its first child statement. Child processes that tests start are not traced.
The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cellfree_sim"


def statement_lines(source: str) -> list[tuple[int, range]]:
    """(first line, lines that count for it) of every executable statement."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    statements = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        children = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        last = children[0].lineno - 1 if children else node.end_lineno
        statements.append((node.lineno, range(first, max(first, last) + 1)))
    return sorted(statements)


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local_trace(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local_trace(frame, event, arg)

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        reached = hits.get(str(path), set())
        for lineno, counted in statement_lines(source):
            total += 1
            if not reached.intersection(counted):
                unreached.append(f"{path.name}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{total} statements, {len(unreached)} unreached")
    for line in unreached:
        print(f"  {line}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
