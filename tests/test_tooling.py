"""Source-level checks that hold for every module of the package."""

import ast
import sys
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


def test_package_imports_only_itself_and_the_standard_library():
    # the package has no runtime dependencies and no native backends
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found.extend(
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            )
    assert found == []
