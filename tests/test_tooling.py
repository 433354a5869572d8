"""Source-level checks that hold for every module of the package."""

import ast
import builtins
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skelcollar

PACKAGE_DIR = Path(skelcollar.__file__).parent
REPO_DIR = Path(__file__).parent.parent


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


def test_no_assertion_error_raised_in_package():
    # a failed check raises exact.VerificationFailed, the one type the CLI
    # maps to exit 3; an AssertionError would escape it with a traceback
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            == "AssertionError"
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
SETTABLE_VALUES_CAP = 5


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


# a ratchet on value types: a record type may be folded into another
# representation, and the cap lowered with it, but a new one needs the cap
# raised on purpose
RECORD_TYPES_CAP = 19


def test_record_types_do_not_grow():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.name}" for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)
                     and any(_name(base) == "Record" for base in node.bases))
    assert len(found) <= RECORD_TYPES_CAP, found


# a ratchet on exception types: a failed check raises VerificationFailed and a
# refused input a ValueError (IndeterminacyHit is one the sampler catches); a
# new type needs the cap raised on purpose
EXCEPTION_TYPES_CAP = 2


def test_exception_types_do_not_grow():
    classes = [(path.name, node) for path in sorted(PACKAGE_DIR.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    # a class is an exception type if a base is a builtin one or, found in an
    # earlier sweep, one of the package's own
    bases = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    found = []
    while True:
        new = [f"{name}:{node.name}" for name, node in classes
               if f"{name}:{node.name}" not in found
               and any(_name(base) in bases for base in node.bases)]
        if not new:
            break
        found += new
        bases |= {entry.partition(":")[2] for entry in new}
    assert len(found) <= EXCEPTION_TYPES_CAP, found


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


def _flag_dests(tree):
    """The ``dest`` of every ``add_argument`` in ``build_parser``: the
    ``dest=`` keyword, else the long option with dashes as underscores."""
    (parser,) = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_parser")
    dests = set()
    for node in ast.walk(parser):
        if isinstance(node, ast.Call) and _name(node.func) == "add_argument":
            given = [k.value.value for k in node.keywords if k.arg == "dest"]
            flag = next(a.value for a in node.args if a.value.startswith("--"))
            dests.add(given[0] if given else flag[2:].replace("-", "_"))
    return dests


def _defaulted_parameters(tree):
    """(name, line) of every function parameter that declares a default."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            with_defaults = positional[len(positional) - len(args.defaults):] + [
                arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            yield from ((arg.arg, arg.lineno) for arg in with_defaults)


def test_library_parameters_named_like_flags_have_no_default():
    # a run default is declared once, by its flag in build_parser; the
    # library takes the value as a required argument
    cli = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    dests = _flag_dests(cli)
    assert {"samples", "seed", "s", "kappa", "weights", "taus"} <= dests
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{line}: {name}"
                     for name, line in _defaulted_parameters(tree) if name in dests)
    assert found == []


# a ratchet on net source lines, as `wc -l src/skelcollar/*.py` counts them:
# lines may be removed, and the cap lowered with them, but growth needs the
# cap raised on purpose, with the reason given in CHANGES.md
SOURCE_LINES_CAP = 3295


def test_source_lines_do_not_grow():
    total = sum(path.read_bytes().count(b"\n") for path in PACKAGE_DIR.glob("*.py"))
    assert total <= SOURCE_LINES_CAP, total


def _package_path_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # one CLI call costs mostly its import; dataclasses (which imports
    # inspect, ast and dis) and its generated methods were most of it, and
    # of the package only what `main` and most handlers need is loaded
    probe = (
        "import sys, skelcollar.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'skelcollar'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_package_path_env(),
        timeout=60,
    )
    loaded = "['skelcollar', 'skelcollar.bundles', 'skelcollar.cli', 'skelcollar.exact']"
    assert (result.returncode, result.stdout, result.stderr) == (0, f"[]\n{loaded}\n", "")


# what one run of `main` adds to the modules `import skelcollar.cli` loads:
# each handler imports the library modules it runs, and no other
_TWIST3 = str(Path(__file__).parent / "golden" / "matrices" / "twist3.json")
_RUN_ADDS = [
    (["collar", "iso", "--n", "3", "--j1", "1", "--j2", "4"], []),
    (["collar", "pic", "--n", "3"], []),
    (["splitting", "--matrix", _TWIST3], []),
    (["moduli-dim", "--n", "3", "--j", "1"], []),
    (["resolve", "--n", "5", "--a", "2"], ["toric"]),
    (["fan", "--n", "5", "--a", "2"], ["toric"]),
    (["skeleton", "--n", "3"], ["skeleton"]),
    (["potential", "--n", "2"], ["potential"]),
    (["birmap", "--a", "1", "--b", "1", "--samples", "5"], ["birmaps"]),
    (["birstep", "--n", "3", "--j", "0", "--samples", "5"], ["birmaps"]),
    (["ext1", "--n", "2", "--j", "2"], ["deform"]),
    (["deform", "--n", "2", "--j", "1"], ["deform"]),
    (["duality", "--n", "3", "--samples", "5"],
     ["birmaps", "deform", "duality", "skeleton", "toric"]),
]


@pytest.mark.parametrize("argv,adds", _RUN_ADDS, ids=[
    " ".join(w for w in argv[:2] if w[0] != "-") for argv, _ in _RUN_ADDS])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, adds):
    probe = (
        "import io, json, sys, skelcollar.cli; before = set(sys.modules); "
        "sys.stdout = io.StringIO(); code = skelcollar.cli.main(json.loads(sys.argv[1])); "
        "sys.stdout = sys.__stdout__; "
        "print(code, sorted(m for m in set(sys.modules) - before if m.startswith('skelcollar.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argv)], capture_output=True, text=True,
        env=_package_path_env(), timeout=60,
    )
    expected = sorted(f"skelcollar.{name}" for name in adds)
    assert (result.returncode, result.stdout, result.stderr) == (0, f"0 {expected}\n", "")


# span sites of bench/spans.py that stopped resolving before this check
# existed (ROADMAP item 1): `duality_report` left the cli namespace and
# `RatMatrix` was deleted; the benchmark reports them as missing boundaries
STALE_SPAN_SITES = {"skelcollar.cli:duality_report", "skelcollar.exact:RatMatrix.kernel"}


def _bench_span_sites():
    """Every "module:attribute.path" of SPAN_SITES and COUNT_SITES, read
    from the source of bench/spans.py without importing it."""
    tree = ast.parse((REPO_DIR / "bench" / "spans.py").read_text(encoding="utf-8"))
    return [
        site
        for node in tree.body
        if isinstance(node, ast.Assign) and _name(node.targets[0]) in ("SPAN_SITES", "COUNT_SITES")
        for sites in ast.literal_eval(node.value).values()
        for site in sites
    ]


def _site_resolves(site):
    """Whether the tracer can patch ``site``: it looks a class attribute up
    in the class's own namespace and a module attribute by name."""
    module_name, _, path = site.partition(":")
    *owners, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in owners:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)


def test_every_bench_span_site_resolves():
    # a refactor that renames or moves a traced function would make the
    # traced run read zero for it; only the two known stale sites may be
    # missing, and each fails this test once it resolves again
    sites = _bench_span_sites()
    assert "skelcollar.deform:ext_class" in sites
    missing = {site for site in sites if not _site_resolves(site)}
    assert missing == STALE_SPAN_SITES & set(sites)


def test_span_site_check_tells_resolving_from_missing():
    assert _site_resolves("skelcollar.exact:LaurentPoly.__mul__")
    assert _site_resolves("skelcollar.duality:verify_birational")
    assert not _site_resolves("skelcollar.exact:LaurentPoly.no_such_method")
    assert not _site_resolves("skelcollar.no_such_module:f")
    # inherited, not defined on the class: the tracer cannot patch it there
    assert not _site_resolves("skelcollar.bundles:BundleTransition.__eq__")


BENCH_KEYS = {"commit", "python", "workloads", "seeds", "medians"}
# from record 13 on, the readings that tell the harness from the program:
# how many workers fit into a run, the fewest speed samples in a pass, and
# the memory each run read
HARNESS_KEYS = {"workers_per_run", "min_speed_samples_per_pass", "peak_rss_mib_per_run"}


def test_every_bench_record_names_its_runs():
    # each performance change commits BENCH_<n>.json at the repository root:
    # the commits compared, the interpreter, the workloads and seeds run, and
    # the parent -> change medians of every metric its CHANGES.md entry cites
    records = sorted(REPO_DIR.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert BENCH_KEYS <= record.keys(), path.name
        if int(path.stem.partition("_")[2]) >= 13:
            assert HARNESS_KEYS <= record.keys(), path.name
        assert record["seeds"] and all(type(s) is int for s in record["seeds"]), path.name
        assert set(record["medians"]) <= set(record["workloads"]), path.name
        for metrics in record["medians"].values():
            for pair in metrics.values():
                assert sorted(pair) == ["change", "parent"], path.name


def test_optimized_interpreter_reproduces_the_golden_report():
    # python -O drops assert statements and __debug__ blocks; the report must
    # not depend on either
    result = subprocess.run(
        [sys.executable, "-O", "-m", "skelcollar.cli", "duality", "--n", "4", "--format", "json"],
        capture_output=True,
        text=True,
        env=_package_path_env(),
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    golden = Path(__file__).parent / "golden" / "reports" / "duality_n4_seed1.json"
    assert result.stdout == golden.read_text(encoding="utf-8")
