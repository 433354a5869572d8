"""Source-level checks that hold for every module of the package."""

import ast
from pathlib import Path

import skelcollar

PACKAGE_DIR = Path(skelcollar.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check written as one would
    # silently disappear; the package raises its errors explicitly
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == []
