"""Source rules that a unit test can enforce."""

import ast
import re
from pathlib import Path

import cycloseq

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cycloseq"


def test_no_assert_statements_in_src():
    # python -O strips asserts, so no correctness check may live in one.
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _names_imported_from_package(source: str) -> set:
    return {alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "cycloseq"
            for alias in node.names}


def test_all_covers_the_demos_and_the_readme():
    # __all__ holds exactly what the demos and the README quick start import
    # from the package, so an export they stop using cannot linger, and
    # nothing it cannot resolve.
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    used = set().union(*map(_names_imported_from_package, sources))
    assert {"SequenceParams", "generate", "complexity_report"} <= used
    assert set(cycloseq.__all__) - {"__version__"} == used
    for name in cycloseq.__all__:
        assert hasattr(cycloseq, name), name
