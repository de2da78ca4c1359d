"""Source rules that a unit test can enforce."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cycloseq"


def test_no_assert_statements_in_src():
    # python -O strips asserts, so no correctness check may live in one.
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
