"""Source-level checks that hold for every module of the package."""

import ast
import json
import os
import subprocess
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


def test_trusted_constructor_is_private_to_exact():
    # LaurentPoly._from_canonical skips validation, so the invariant it
    # trusts must be auditable in the one module that calls it
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "exact.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "_from_canonical")
            or (isinstance(node, ast.Name) and node.id == "_from_canonical")
            or (isinstance(node, ast.Constant) and node.value == "_from_canonical")
        )
    assert found == []
    exact = (PACKAGE_DIR / "exact.py").read_text(encoding="utf-8")
    assert "_from_canonical" in exact


# a ratchet: settable values may be removed, and the cap lowered with them,
# but a new one needs the cap raised on purpose
SETTABLE_VALUES_CAP = 24


def _name(node):
    """The last part of a plain or dotted name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _has_fields(node):
    """A dataclass or a subclass of ``exact.Record``: both take their class
    attributes as field defaults."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(_name(d) == "dataclass" for d in decorators) or any(
        _name(base) == "Record" for base in node.bases
    )


def _settable_values(tree):
    """name:line of every parameter default and every record field default."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            defaults = args.defaults + [d for d in args.kw_defaults if d is not None]
            found.extend(f"{getattr(node, 'name', 'lambda')}:{d.lineno}" for d in defaults)
        elif isinstance(node, ast.ClassDef) and _has_fields(node):
            found.extend(
                f"{node.name}.{item.target.id}:{item.lineno}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and item.value is not None
            )
    return found


def test_settable_values_do_not_grow():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{value}" for value in _settable_values(tree))
    assert len(found) <= SETTABLE_VALUES_CAP, found


def test_settable_value_count_reads_defaults_and_dataclass_fields():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    e: int\n"
        "    f: int = 3\n"
        "class Plain:\n"
        "    g: int = 4\n"
        "class R(Record):\n"
        "    h: int\n"
        "    i: str = ''\n"
        "class S(exact.Record):\n"
        "    j: int = 5\n"
    )
    assert sorted(_settable_values(tree)) == [
        "C.f:7", "R.i:12", "S.j:14", "f:2", "f:2", "lambda:3"
    ]


# a ratchet on net source lines, as `wc -l src/skelcollar/*.py` counts them:
# lines may be removed, and the cap lowered with them, but growth needs the
# cap raised on purpose, with the reason given in CHANGES.md
SOURCE_LINES_CAP = 3546


def test_source_lines_do_not_grow():
    total = sum(path.read_bytes().count(b"\n") for path in PACKAGE_DIR.glob("*.py"))
    assert total <= SOURCE_LINES_CAP, total


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # one CLI call costs mostly its import; dataclasses (which imports
    # inspect, ast and dis) and its generated methods were most of it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    probe = "import sys, skelcollar.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


BENCH_KEYS = {"commit", "python", "workloads", "seeds", "medians"}


def test_every_bench_record_names_its_runs():
    # each performance change commits BENCH_<n>.json at the repository root:
    # the commits compared, the interpreter, the workloads and seeds run, and
    # the parent -> change medians of every metric its CHANGES.md entry cites
    records = sorted(Path(__file__).parent.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert BENCH_KEYS <= record.keys(), path.name
        assert record["seeds"] and all(type(s) is int for s in record["seeds"]), path.name
        assert set(record["medians"]) <= set(record["workloads"]), path.name
        for metrics in record["medians"].values():
            for pair in metrics.values():
                assert sorted(pair) == ["change", "parent"], path.name


def test_optimized_interpreter_reproduces_the_golden_report():
    # python -O drops assert statements and __debug__ blocks; the report must
    # not depend on either
    env = {k: v for k, v in os.environ.items() if k != "SKELCOLLAR_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-O", "-m", "skelcollar.cli", "duality", "--n", "4", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    golden = Path(__file__).parent / "golden" / "reports" / "duality_n4_seed1.json"
    assert result.stdout == golden.read_text(encoding="utf-8")
