"""Count the statements of ``src/wzforms`` that tier-1 never runs.

Run as ``python tests/line_coverage.py`` from anywhere.  It runs the tier-1
suite in this process under a ``sys.settrace`` line tracer, so the CLI cases
count, then prints each file's unreached statements and the total.  It uses
the standard library only and exits 0 whatever the count: it is a report,
not a gate.  Extra arguments go to pytest (``-x``, ``-k name``, ...).

A statement is an AST ``stmt`` other than a ``def``, a ``class``, an
import, ``global``, ``nonlocal`` or a docstring; those make no line event
of their own when their body is what runs.  A simple statement is reached
when any of its lines makes a line event; a compound one (``if``, ``for``,
``try``, ...) when a line of its header does or a statement inside it is
reached.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wzforms"

_UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
              ast.ImportFrom, ast.Global, ast.Nonlocal)


def _is_docstring(stmt, parent):
    return (isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef))
            and parent.body and parent.body[0] is stmt
            and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _children(stmt):
    """The statements directly inside a node, in every block it has."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out.extend(getattr(stmt, field, ()))
    for handler in getattr(stmt, "handlers", ()):
        out.extend(handler.body)
    for case in getattr(stmt, "cases", ()):
        out.extend(case.body)
    return out


def _own_lines(stmt, children):
    """The lines of a statement that no statement inside it spans."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in children:
        lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def unreached(path, executed):
    """The counted statements of one file, and the line numbers of those
    that no line event in ``executed`` reached."""
    tree = ast.parse(path.read_text(), str(path))
    counted = 0
    missed = []

    def visit(node):
        """True iff some counted statement at or below node was reached."""
        nonlocal counted
        reached_any = False
        for stmt in _children(node):
            below = visit(stmt)
            if isinstance(stmt, _UNCOUNTED) or _is_docstring(stmt, node):
                reached_any |= below
                continue
            counted += 1
            if below or _own_lines(stmt, _children(stmt)) & executed:
                reached_any = True
            else:
                missed.append(stmt.lineno)
        return reached_any

    visit(tree)
    return counted, sorted(missed)


def main(argv):
    import pytest  # imported before tracing starts: only src/ is traced

    prefix = str(PACKAGE) + "/"
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = total_missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        counted, missed = unreached(path, executed.get(str(path), set()))
        total += counted
        total_missed += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} unreached, lines "
                  + ", ".join(map(str, missed)))
    print(f"pytest exit {int(status)}; {total_missed} of {total} statements "
          f"in src/wzforms unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
