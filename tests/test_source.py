import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wzforms"


def test_library_has_no_assert_statements():
    # checks must be explicit raises, so that they still run under python -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
