"""End-to-end checks of the command-line front end.

The mathematical content is covered by the per-module suites; these tests
pin the wiring: argument handling, exit codes, report formats, and the
round trip between emitted JSON and the library's own readers.
"""

import argparse
import contextlib
import hashlib
import io
import json
import signal
import time
from fractions import Fraction
from itertools import takewhile
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from skelcollar import birmaps, bundles, cli, deform, duality, toric
from skelcollar.birmaps import point_text, projectively_equal
from skelcollar.bundles import BundleTransition, splitting_type
from skelcollar.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, build_parser, main
from skelcollar.deform import ext1_basis
from skelcollar.exact import LaurentPoly, VerificationFailed
from skelcollar.toric import QuotientSingularity, quotient_cone


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_skeleton_text_lists_all_components(capsys):
    code, out, _ = run(capsys, ["skeleton", "--n", "3"])
    assert code == EXIT_OK
    assert "L_0: affine fiber of dimension 3 | {x1 = x2 = x3 = 0}" in out
    assert (
        "L_1: rank-2 bundle over a dimension-1 base, fiber twists (-1, -1) "
        "| {x2 = x3 = y1 = 0}" in out
    )
    assert (
        "L_2: rank-1 bundle over a dimension-2 base, fiber twists (-1) "
        "| {x3 = y1 = y2 = 0}" in out
    )
    assert "L_3: zero section of dimension 3 | {y1 = y2 = y3 = 0}" in out


def test_header_reports_effective_parameters(capsys):
    code, out, _ = run(capsys, ["duality", "--n", "2", "--samples", "5", "--seed", "7"])
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert header.startswith("# skelcollar duality |")
    assert "n=2" in header
    assert "seed=7" in header
    assert "cutoff=auto" in header


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["duality", "--n", "3", "--samples", "8", "--format", "json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_json_reports_carry_config(capsys):
    code, out, _ = run(capsys, ["moduli-dim", "--n", "3", "--j", "4", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["subcommand"] == "moduli-dim"
    assert doc["config"]["n"] == "3"
    assert doc["config"]["j"] == "4"
    assert doc["config"]["seed"] == "1"
    assert doc["dimension"] == 3


def test_moduli_dim_empty_case_carries_note(capsys):
    code, out, _ = run(capsys, ["moduli-dim", "--n", "8", "--j", "2", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["dimension"] is None
    assert "empty" in doc["note"]


def test_ext1_json_round_trips_through_reader(capsys):
    code, out, _ = run(capsys, ["ext1", "--n", "2", "--j", "2", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    rebuilt = tuple(LaurentPoly.from_json_dict(entry) for entry in doc["basis"])
    assert rebuilt == ext1_basis(2, 2)
    assert doc["dimension"] == len(rebuilt)


def test_resolve_json_schema(capsys):
    code, out, _ = run(capsys, ["resolve", "--n", "5", "--a", "2", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["cone"] == [[1, 0], [-2, 5]]
    assert doc["rays"] == [[0, 1], [-1, 3]]
    assert doc["self_intersections"] == [-3, -2]
    assert doc["intersection_matrix"] == [[-3, 1], [1, -2]]


def test_fan_json_matches_dual_cone(capsys):
    code, out, _ = run(capsys, ["fan", "--n", "4", "--a", "1", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    cone = quotient_cone(QuotientSingularity(4, 1))
    dual = cone.dual()
    assert doc["cone"] == [list(r) for r in cone.rays]
    assert doc["dual"] == [list(r) for r in dual.rays]


def test_potential_json_h_round_trips(capsys):
    code, out, _ = run(capsys, ["potential", "--n", "3", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    h = LaurentPoly.from_json_dict(doc["h"])
    assert str(h) == doc["h_display"]
    assert doc["residual_zero"] is True
    assert doc["kappa"] == "2"


def test_potential_text_shows_closed_form(capsys):
    code, out, _ = run(capsys, ["potential", "--n", "2", "--weights", "5,7", "--kappa", "3/2"])
    assert code == EXIT_OK
    assert "h = c - 15/2*x1*y1 - 21/2*x2*y2" in out
    assert "residual against the symbolic test field: 0" in out


def test_collar_pic_table(capsys):
    code, out, _ = run(capsys, ["collar", "pic", "--n", "3"])
    assert code == EXIT_OK
    assert "residue classes mod 3: [0, 1, 2]" in out
    assert "1: [1, 2, 0]" in out


def test_collar_pic_over_the_table_cap_exits_2(capsys):
    code, out, err = run(capsys, ["collar", "pic", "--n", "65"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --n 65 needs a tensor table of 4225 cells, over the cap of 4096\n"


def test_collar_pic_at_the_table_cap_is_answered(capsys):
    code, out, err = run(capsys, ["collar", "pic", "--n", "64", "--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    table = json.loads(out)["table"]
    assert len(table) == 64 and table[63][1] == 0 and table[5][7] == 12


# sha256 over exit code and stdout of `collar pic --n N`, text then JSON,
# N = 1..64: the reports stay fixed whatever certificate work backs them
PIC_REPORTS_SHA256 = "171e9f54c361667b3a88fd3673c4001c279d71205e6cf60ba945a5548f715b47"


def test_collar_pic_reports_up_to_the_cap_keep_their_digest(capsys):
    digest = hashlib.sha256()
    for n in range(1, 65):
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, ["collar", "pic", "--n", str(n), "--format", fmt])
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == PIC_REPORTS_SHA256


def test_collar_iso_certificate_and_refusal(capsys):
    code, out, _ = run(capsys, ["collar", "iso", "--n", "3", "--j1", "5", "--j2", "2"])
    assert code == EXIT_OK
    assert "isomorphic on the punctured surface: yes" in out
    assert "certificate frames" in out

    code, out, _ = run(capsys, ["collar", "iso", "--n", "3", "--j1", "5", "--j2", "1"])
    assert code == EXIT_OK
    assert "isomorphic on the punctured surface: no" in out
    assert "certificate frames" not in out


def test_splitting_reads_matrix_file(capsys, tmp_path):
    upper = LaurentPoly.var("z") ** 3
    off = LaurentPoly.monomial({"z": -1})
    lower = LaurentPoly.monomial({"z": -3})
    zero = LaurentPoly.zero()
    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "matrix": [
                    [upper.to_json_dict(), off.to_json_dict()],
                    [zero.to_json_dict(), lower.to_json_dict()],
                ],
            }
        )
    )
    code, out, _ = run(capsys, ["splitting", "--matrix", str(path), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    expected = splitting_type(
        BundleTransition.from_rows(2, [[upper, off], [zero, lower]])
    )
    assert tuple(doc["splitting"]) == expected


def test_splitting_rejects_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": []}))
    code, _, err = run(capsys, ["splitting", "--matrix", str(path)])
    assert code == EXIT_USAGE
    assert "matrix file" in err

    code, _, err = run(capsys, ["splitting", "--matrix", str(tmp_path / "missing.json")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "entry",
    [
        {"vars": ["z"], "terms": [{"exp": [1], "num": "1", "den": "0"}]},
        {"vars": ["z"], "terms": [{"exp": [False], "num": "1", "den": "1"}]},
        {"vars": ["z"], "terms": [{"exp": [0.5], "num": "1", "den": "1"}]},
        {
            "vars": ["z"],
            "terms": [
                {"exp": [-1], "num": "1", "den": "1"},
                {"exp": [-1], "num": "2", "den": "1"},
            ],
        },
        # the variable list must be a JSON list of names; a string is not
        {"vars": "zu", "terms": [{"exp": [0, 1], "num": "1", "den": "1"}]},
        {"vars": ["z", 1], "terms": [{"exp": [1, 0], "num": "1", "den": "1"}]},
        {"vars": [["z"]], "terms": [{"exp": [1], "num": "1", "den": "1"}]},
    ],
)
def test_splitting_rejects_malformed_entry_without_traceback(capsys, tmp_path, entry):
    one = LaurentPoly.const(1).to_json_dict()
    zero = LaurentPoly.zero().to_json_dict()
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps({"n": 2, "matrix": [[one, entry], [zero, one]]}))
    code, out, err = run(capsys, ["splitting", "--matrix", str(path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_splitting_rejects_an_empty_variable_name(capsys, tmp_path):
    one = LaurentPoly.const(1).to_json_dict()
    zero = LaurentPoly.zero().to_json_dict()
    entry = {"vars": [""], "terms": [{"exp": [1], "num": "1", "den": "1"}]}
    path = tmp_path / "empty_name.json"
    path.write_text(json.dumps({"n": 2, "matrix": [[one, entry], [zero, one]]}))
    code, out, err = run(capsys, ["splitting", "--matrix", str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: matrix entry [0][1], variable names must be non-empty strings, got ''\n"


_TERM = {"exp": [1], "num": "1", "den": "1"}


@pytest.mark.parametrize(
    "matrix,named",
    [
        ("abc", 'matrix file must be a JSON object {"n": ..., "matrix": [[...], ...]}'),
        ([[{"vars": ["z"], "terms": [{"exp": [1], "den": "1"}]}]],
         'matrix entry [0][0], term 0: no "num"'),
        ([[None]],
         'matrix entry [0][0], a polynomial is an object with lists "vars" and "terms": None'),
        ([[{"vars": ["z"], "terms": [_TERM, {**_TERM, "exp": 1}]}]],
         'matrix entry [0][0], term 1: "exp" must be a list of integers, got 1'),
        ([[{"vars": ["z"], "terms": []}, {"vars": ["z"], "terms": []}],
          [{"vars": ["z"], "terms": [_TERM]}, {"vars": ["z"], "terms": ["x"]}]],
         'matrix entry [1][1], term 0: no "exp"'),
    ],
    ids=["matrix-string", "term-no-num", "entry-null", "exp-int", "term-string"],
)
def test_splitting_names_the_malformed_entry(capsys, tmp_path, matrix, named):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"n": 1, "matrix": matrix}))
    code, out, err = run(capsys, ["splitting", "--matrix", str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {named}\n"


def _write_matrix(path, n, rows):
    path.write_text(
        json.dumps({"n": n, "matrix": [[p.to_json_dict() for p in row] for row in rows]})
    )
    return str(path)


def test_splitting_over_the_spread_cap_exits_2(capsys, tmp_path):
    off = LaurentPoly.monomial({"z": 65, "u": 1})
    trans = BundleTransition.canonical(1, 1, off)
    path = _write_matrix(tmp_path / "wide.json", 1, trans.entries)
    code, out, err = run(capsys, ["splitting", "--matrix", path])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: the matrix has z exponents up to 65 in absolute value, over the cap of 64\n"


def test_splitting_at_the_spread_cap_is_answered(capsys, tmp_path):
    # the fiber term vanishes on the zero section, so the count itself is cheap
    off = LaurentPoly.monomial({"z": 64, "u": 1})
    trans = BundleTransition.canonical(1, 1, off)
    path = _write_matrix(tmp_path / "at_cap.json", 1, trans.entries)
    code, out, err = run(capsys, ["splitting", "--matrix", path, "--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["splitting"] == [1, -1]


def _fiber_terms(count):
    """An entry of count terms z^a u^b, |a| <= 24 and b >= 1, which vanish on
    the zero section."""
    return LaurentPoly(("u", "z"), {(1 + t // 49, t % 49 - 24): 1 + t % 7 for t in range(count)})


def test_splitting_over_the_term_cap_exits_2_before_the_determinant(capsys, monkeypatch,
                                                                    tmp_path):
    # the determinant of these entries multiplies 1200 terms by 1200, which
    # took seconds before the terms were counted
    built = []
    monkeypatch.setattr(BundleTransition, "from_rows", lambda n, rows: built.append(n))
    z = LaurentPoly.var("z")
    path = _write_matrix(tmp_path / "dense.json", 2,
                         [[z**2, _fiber_terms(1200)], [_fiber_terms(1200), z**-2]])
    start = time.perf_counter()
    code, out, err = run(capsys, ["splitting", "--matrix", path])
    assert time.perf_counter() - start < 0.5
    assert (code, out, built) == (EXIT_USAGE, "", [])
    assert err == "error: the matrix has 2402 terms, over the cap of 512\n"
    path = _write_matrix(tmp_path / "over.json", 1,
                         BundleTransition.canonical(1, 24, _fiber_terms(511)).entries)
    assert run(capsys, ["splitting", "--matrix", path])[2] == (
        "error: the matrix has 513 terms, over the cap of 512\n"
    )


def test_splitting_at_the_term_cap_is_answered(capsys, tmp_path):
    trans = BundleTransition.canonical(1, 24, _fiber_terms(cli.SPLITTING_MAX_TERMS - 2))
    path = _write_matrix(tmp_path / "at_cap.json", 1, trans.entries)
    code, out, err = run(capsys, ["splitting", "--matrix", path, "--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["splitting"] == [24, -24]


def _skewed_counts(monkeypatch, skew):
    """Route bundles.h0_twist through skew(twist, count)."""
    real = bundles.h0_twist
    monkeypatch.setattr(
        bundles, "h0_twist", lambda trans, twist: skew(twist, real(trans, twist))
    )


def test_splitting_profile_mismatch_names_its_witness(capsys, monkeypatch):
    # twist3 splits as (1, -1): twist 1 has 3 + 1 = 4 sections, reported as 5
    _skewed_counts(monkeypatch, lambda twist, count: count + 1 if twist == 1 else count)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, golden_argv("splitting_matrix-twist3", fmt))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: section counts do not match any split pair at twist 1: "
            "found 5, the pair (1, -1) has 4\n"
        )


def test_splitting_past_the_degree_cap_names_its_witness(capsys, monkeypatch):
    # twist3 has z spread 3, so the walk gives up at twist -4
    _skewed_counts(monkeypatch, lambda twist, count: 1 if twist < 0 else count)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, golden_argv("splitting_matrix-twist3", fmt))
        assert (code, out) == (EXIT_VERIFY, "")
        assert err == (
            "verification failed: sections persist beyond the degree cap 4: "
            "twist -4 still has 1\n"
        )


@pytest.mark.parametrize("n_text", ["1e999", "2.7", "true", '"3"'])
def test_splitting_rejects_non_integer_n_without_traceback(capsys, tmp_path, n_text):
    one = json.dumps(LaurentPoly.const(1).to_json_dict())
    zero = json.dumps(LaurentPoly.zero().to_json_dict())
    path = tmp_path / "bad_n.json"
    # written as raw text: 1e999 has no json.dumps spelling
    path.write_text(f'{{"n": {n_text}, "matrix": [[{one}, {zero}], [{zero}, {one}]]}}')
    code, out, err = run(capsys, ["splitting", "--matrix", str(path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert "must be a JSON integer" in err
    assert "Traceback" not in err


def test_deform_profile_lines(capsys):
    code, out, _ = run(capsys, ["deform", "--n", "2", "--j", "1", "--taus", "0,1,1/3"])
    assert code == EXIT_OK
    assert "family entry: z^-1" in out
    assert "tau = 0: splitting 2" in out
    assert "tau = 1: splitting 1" in out
    assert "tau = 1/3: splitting 1" in out


def test_birstep_round_trip(capsys):
    code, out, _ = run(capsys, ["birstep", "--n", "3", "--j", "0", "--samples", "15"])
    assert code == EXIT_OK
    assert "round trip passed" in out
    assert "samples checked: 15" in out


def test_ext1_takes_no_cutoff(capsys):
    # the basis is a closed form with no window to set
    code, out, err = run(capsys, ["ext1", "--n", "1", "--j", "3", "--cutoff", "3"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --cutoff 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n,j,entry", [(1, 3, "z^-3"), (2, 0, "1")])
def test_default_deform_profile_reuses_the_checked_endpoints(capsys, monkeypatch, n, j, entry):
    # the builder checks tau = 0 and tau = 1 (for j = 0 the corner z^0 is 1);
    # the report reads them from family.endpoints, default or passed in
    # --taus, and counts only the other taus
    calls = []
    real = deform.splitting_type
    monkeypatch.setattr(deform, "splitting_type", lambda trans: calls.append(1) or real(trans))
    argv = ["deform", "--n", str(n), "--j", str(j)]
    counted = []
    for taus in ([], ["--taus", "0,1"], ["--taus", "0,1,1/3"], ["--taus", "1/3,1,0,1"]):
        calls.clear()
        code, out, err = run(capsys, argv + taus)
        assert (code, err) == (EXIT_OK, "")
        counted.append((len(calls) - 2, out.splitlines()[1:]))
    lines = [f"family entry: {entry}", f"tau = 0: splitting {j + 1}", f"tau = 1: splitting {j}"]
    third = f"tau = 1/3: splitting {j}"
    assert counted == [
        (0, lines), (0, lines), (1, lines + [third]), (1, [lines[0], third, lines[2], lines[1], lines[2]]),
    ]


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["skeleton"],
        ["skeleton", "--n", "0"],
        ["no-such-command"],
        ["potential", "--n", "3", "--weights", "1,2"],
        ["skeleton", "--n", "2", "--format", "svg"],
        ["deform", "--n", "2", "--j", "1", "--taus", "0,oops"],
        ["birmap", "--a", "1", "--b", "1", "--samples", "0"],
    ):
        code, _, _ = run(capsys, argv)
        assert code == EXIT_USAGE, argv


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == EXIT_OK
    assert "skelcollar" in out


def test_svg_output_is_deterministic_and_integral(capsys):
    argv = ["resolve", "--n", "5", "--a", "2", "--format", "svg"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.startswith("<svg")
    assert "." not in out1.split("</text>")[0].split(">")[-1]
    assert 'stroke-dasharray' in out1


def test_fan_svg_has_no_dashed_rays(capsys):
    code, out, _ = run(capsys, ["fan", "--n", "3", "--a", "2", "--format", "svg"])
    assert code == EXIT_OK
    assert out.startswith("<svg")
    assert "stroke-dasharray" not in out


def test_output_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["collar", "pic", "--n", "4", "--format", "json", "--output", str(path)],
    )
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["classes"] == [0, 1, 2, 3]


def test_duality_text_table(capsys):
    code, out, _ = run(capsys, ["duality", "--n", "4", "--samples", "10"])
    assert code == EXIT_OK
    assert "collar parameter n = 4" in out
    assert "all squares verified: yes" in out
    assert out.count("-> ") >= 3


def _unwritable_output(tmp_path):
    return ["skeleton", "--n", "2", "--output", str(tmp_path / "missing" / "report.txt")]


def _deeply_nested_matrix(tmp_path):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"n": 2, "matrix": ' + "[" * depth + "]" * depth + "}")
    return ["splitting", "--matrix", str(path)]


@pytest.mark.parametrize("make_argv", [_unwritable_output, _deeply_nested_matrix])
def test_bad_input_exits_2_with_an_error_line(capsys, tmp_path, make_argv):
    code, out, err = run(capsys, make_argv(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["skeleton", "--n", "3", "--weights", "2,5,9"],
    ["collar", "iso", "--n", "3", "--j1", "7", "--j2", "1", "--bound", "2"],
], ids=["skeleton-weights", "collar-iso-bound"])
def test_removed_flags_exit_2_without_traceback(capsys, argv):
    # skeleton's weights are fixed at 1..n, and the line certificate needs no bound
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["num", "den"])
@pytest.mark.parametrize("value_text", ["2.5", "true", "1e999"])
def test_splitting_rejects_non_integer_coefficient_without_traceback(
    capsys, tmp_path, field, value_text
):
    term = {"exp": [-1], "num": "1", "den": "1"}
    term[field] = "VALUE"
    entry = json.dumps({"vars": ["z"], "terms": [term]}).replace('"VALUE"', value_text)
    one = json.dumps(LaurentPoly.const(1).to_json_dict())
    zero = json.dumps(LaurentPoly.zero().to_json_dict())
    path = tmp_path / "bad_coefficient.json"
    # written as raw text: 1e999 has no json.dumps spelling
    path.write_text(f'{{"n": 2, "matrix": [[{one}, {entry}], [{zero}, {one}]]}}')
    code, out, err = run(capsys, ["splitting", "--matrix", str(path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert f'"{field}" must be an integer' in err
    assert "Traceback" not in err


# -- golden reports ---------------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden" / "reports"
MATRIX_DIR = Path(__file__).parent / "golden" / "matrices"
HELP_DIR = Path(__file__).parent / "golden" / "help"


def golden_argv(name, fmt="json"):
    """``birstep_n4_j1_seed7`` -> the argv whose report the file holds.

    A part with digits is a flag and its value. ``key-value`` separates the
    two where the flag ends in a digit (``j1-5``); ``matrix-NAME`` names a
    file in ``golden/matrices``. A part with no digits is a command word
    before the first flag (``collar_pic_n3``) and a bare flag after it
    (``fan_n5_a2_dual``)."""
    subcommand, *params = name.split("_")
    argv = [subcommand]
    for param in params:
        key, dash, value = param.partition("-")
        if not dash:
            key = param.rstrip("0123456789")
            value = param[len(key):]
        if key == "matrix":
            value = str(MATRIX_DIR / f"{value}.json")
        if value:
            argv += [f"--{key}", value]
        elif any(word.startswith("--") for word in argv):
            argv.append(f"--{key}")
        else:
            argv.append(key)
    return argv + ["--format", fmt]


GOLDEN_NAMES = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))
SVG_GOLDEN_NAMES = sorted(path.stem for path in GOLDEN_DIR.glob("*.svg"))
TEXT_GOLDEN_NAMES = sorted(path.stem for path in GOLDEN_DIR.glob("*.txt"))


def _parsers(parser, path=()):
    """(subcommand path, parser) for the top-level parser and every
    subparser below it, depth first."""
    found = [(path, parser)]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += _parsers(sub, path + (name,))
    return found


_PARSERS = _parsers(build_parser())


def _is_leaf(parser):
    return not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)


# (subcommand path, options) for every leaf parser; an option is its flag
# and the argparse action behind it
_LEAVES = [
    (path, [(a.option_strings[-1], a) for a in parser._actions if a.dest != "help"])
    for path, parser in _PARSERS
    if _is_leaf(parser)
]


def _help_name(path):
    return "_".join(("skelcollar",) + path)


def test_golden_set_is_complete():
    duality_cases = [f"duality_n{n}_seed{s}" for n in range(2, 8) for s in (1, 2)]
    birmap_cases = [f"birmap_a{a}_b{b}" for a in range(6) for b in range(6) if 1 <= a + b <= 5]
    birstep_cases = [
        f"birstep_n{n}_j{j}_seed{s}" for n in range(2, 7) for j in range(n - 1) for s in (1, 7)
    ]
    skeleton_cases = [f"skeleton_n{n}" for n in range(1, 6)]
    quotients = [(1, 1)] + [(n, a) for n in range(2, 8) for a in range(1, n) if gcd(n, a) == 1]
    toric_cases = [f"{cmd}_n{n}_a{a}" for cmd in ("resolve", "fan") for n, a in quotients]
    ext1_cases = [f"ext1_n{n}_j{j}" for n in range(1, 4) for j in range(4)]
    deform_cases = [f"deform_n{n}_j{j}" for n in range(1, 4) for j in range(3)]
    potential_cases = [f"potential_n{n}" for n in range(1, 4)]
    collar_cases = [f"collar_pic_n{n}" for n in (1, 3, 4)] + [
        "collar_iso_n3_j1-5_j2-1",  # residues differ: no certificate
        "collar_iso_n3_j1-5_j2-2",
        "collar_iso_n3_j1-7_j2-1",
        "collar_iso_n2_j1-0_j2-4",
    ]
    moduli_cases = [f"moduli-dim_n{n}_j{j}" for n in range(1, 5) for j in range(5)]
    # fixtures in golden/matrices: j = 0, 0 < j < k and j = k, a dense p,
    # fiber terms that vanish on the zero section, n = 1..4, and one matrix
    # that is not triangular
    splitting_cases = [
        f"splitting_matrix-{name}"
        for name in ("twist3", "j0-n1", "j2-n3", "jk-n4", "dense-n2", "fiber-n3", "sheared-n2")
    ]
    assert sorted(
        duality_cases + birmap_cases + birstep_cases
        + skeleton_cases + toric_cases + ext1_cases + deform_cases
        + potential_cases + collar_cases + moduli_cases + splitting_cases
    ) == GOLDEN_NAMES
    assert SVG_GOLDEN_NAMES == sorted([
        "resolve_n5_a2", "resolve_n6_a5", "resolve_n7_a3",
        "fan_n5_a2", "fan_n5_a2_dual", "fan_n6_a5_dual",
    ])
    # one text report per subcommand pins its header line; splitting has one
    # per fixture
    assert TEXT_GOLDEN_NAMES == sorted([
        "skeleton_n3", "potential_n3", "resolve_n5_a2", "fan_n5_a2_dual",
        "birmap_a1_b2", "birstep_n4_j1_seed7", "collar_pic_n3",
        "collar_iso_n3_j1-7_j2-1", "moduli-dim_n3_j4", "ext1_n3_j2",
        "deform_n3_j2_s2", "duality_n3_seed2",
    ] + splitting_cases)
    commands = {tuple(takewhile(lambda word: not word.startswith("--"), golden_argv(name)))
                for name in TEXT_GOLDEN_NAMES}
    assert sorted(commands) == sorted(path for path, _ in _LEAVES)
    # one help text per parser, the top-level one included
    help_names = sorted(path.stem for path in HELP_DIR.glob("*.txt"))
    assert help_names == sorted(_help_name(path) for path, _ in _PARSERS)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_report_matches_golden(capsys, name):
    # duality, birmap and birstep were captured before sample points went
    # through the maps as integer homogeneous coordinates; skeleton, resolve,
    # fan, ext1 and deform before the Sylvester minors became continuants;
    # potential, collar, moduli-dim and splitting_matrix-twist3 before the
    # parser's namespace replaced the CLI's own config record; the other
    # splitting fixtures before the twist walk stopped at the first empty
    # twist
    code, out, err = run(capsys, golden_argv(name))
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", SVG_GOLDEN_NAMES)
def test_figure_matches_golden(capsys, name):
    code, out, err = run(capsys, golden_argv(name, "svg"))
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN_DIR / f"{name}.svg").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", TEXT_GOLDEN_NAMES)
def test_text_report_matches_golden(capsys, name):
    code, out, err = run(capsys, golden_argv(name, "text"))
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", [path for path, _ in _PARSERS], ids=_help_name)
def test_help_matches_golden(capsys, monkeypatch, path):
    # argparse wraps help text to the terminal width it reads from COLUMNS;
    # the goldens hold Python 3.11's argparse layout
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, list(path) + ["--help"])
    assert (code, err) == (EXIT_OK, "")
    assert out == (HELP_DIR / f"{_help_name(path)}.txt").read_text(encoding="utf-8")


# -- large quotients ---------------------------------------------------------------


@pytest.mark.parametrize("subcommand", ["resolve", "fan"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_large_quotient_reports_build_no_figure(capsys, subcommand, fmt):
    # the n = 2000 figure would draw a 4001 x 4001 grid; text and JSON
    # must not build it
    start = time.perf_counter()
    code, out, err = run(capsys, [subcommand, "--n", "2000", "--a", "1", "--format", fmt])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (EXIT_OK, "")
    assert "2000" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--n", "2000", "--a", "1"],
        ["fan", "--n", "2000", "--a", "1"],
        ["fan", "--n", "2000", "--a", "1", "--dual"],
    ],
)
def test_figure_over_the_grid_cap_exits_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv + ["--format", "svg"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert f"cap of {cli.SVG_MAX_GRID_POINTS} grid points" in err
    assert "Traceback" not in err


def test_figure_at_the_grid_cap_is_drawn(capsys):
    # extent 158 gives a 315 x 315 grid, just under the cap
    assert 315 * 315 <= cli.SVG_MAX_GRID_POINTS < 317 * 317
    code, out, _ = run(capsys, ["resolve", "--n", "157", "--a", "1", "--format", "svg"])
    assert code == EXIT_OK
    assert out.count('fill="#c0c0c0"') == 315 * 315
    code, _, err = run(capsys, ["resolve", "--n", "158", "--a", "1", "--format", "svg"])
    assert code == EXIT_USAGE
    assert "317 x 317" in err


@pytest.mark.parametrize("fmt", ["text", "json", "svg"])
def test_resolve_over_the_matrix_cap_exits_2(capsys, fmt):
    # n / (n - 1) resolves into a chain of n - 1 curves
    assert 200 * 200 <= cli.RESOLVE_MAX_MATRIX_CELLS < 201 * 201
    code, out, err = run(capsys, ["resolve", "--n", "202", "--a", "201", "--format", fmt])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: --n 202 --a 201 needs an intersection matrix of 201 x 201, 40401 cells, "
        "over the cap of 40000\n"
    )


def test_resolve_refuses_before_building_the_chain(capsys, monkeypatch):
    # n / (n - 1) has n - 1 coefficients; the cap is checked on their count
    def built(singularity):
        raise AssertionError(f"built the chain of {singularity}")

    monkeypatch.setattr(toric, "minimal_resolution", built)
    start = time.perf_counter()
    code, out, err = run(capsys, ["resolve", "--n", "1000000", "--a", "999999"])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: --n 1000000 --a 999999 needs an intersection matrix of 999999 x 999999, "
        "999998000001 cells, over the cap of 40000\n"
    )


def test_resolve_at_the_matrix_cap_is_answered(capsys):
    code, out, err = run(capsys, ["resolve", "--n", "201", "--a", "200", "--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    matrix = json.loads(out)["intersection_matrix"]
    assert len(matrix) == 200 and all(len(row) == 200 for row in matrix)
    assert matrix[0][:3] == [-2, 1, 0] and matrix[199][197:] == [0, 1, -2]


@pytest.mark.parametrize(
    "argv,error",
    [
        (["skeleton", "--n", "22"],
         "--n 22 needs 23 fiber transitions of 22 x 22, 11132 cells, over the cap of 10000"),
        (["potential", "--n", "50"],
         "--n 50 needs a potential of 51 terms over 101 variables, 5151 cells, "
         "over the cap of 5000"),
        (["birmap", "--a", "9", "--b", "9", "--samples", "481"],
         "--a 9 --b 9 --samples 481 needs 100 Segre components times 501 variables and "
         "samples, 50100 cells, over the cap of 50000"),
        (["duality", "--n", "15"],
         "--n 15 --samples 40 needs 14 squares of 60 section counts and 40 samples over "
         "15 coordinates, 21000 cells, over the cap of 20000"),
        (["birstep", "--n", "6", "--j", "0", "--samples", "3119"],
         "--n 6 --j 0 --samples 3119 needs 16 Segre components times 3126 variables and "
         "samples, 50016 cells, over the cap of 50000"),
        (["ext1", "--n", "1", "--j", "300"],
         "--n 1 --j 300 needs a basis window of 599 fiber levels of up to 599 monomials, "
         "358801 cells, over the cap of 20000"),
        (["deform", "--n", "1", "--j", "200"],
         "--n 1 --j 200 --s 1 needs 4 splitting types of 404 twists over windows of 404 "
         "z-degrees, 652864 cells, over the cap of 4000"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_work_over_the_cap_exits_2(capsys, argv, error, fmt):
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv,cells,cap",
    [
        (["skeleton", "--n", "21"], 22 * 21 * 21, cli.SKELETON_MAX_TRANSITION_CELLS),
        (["potential", "--n", "49"], 50 * 99, cli.POTENTIAL_MAX_TERM_CELLS),
        (["birmap", "--a", "9", "--b", "9", "--samples", "480"], 100 * 500,
         cli.BIRMAP_MAX_SEGRE_CELLS),
        (["duality", "--n", "2", "--samples", "9992"], 1 * (8 + 9992) * 2,
         cli.DUALITY_MAX_SQUARE_CELLS),
        # the two collapses of the step 0 -> 1 in dimension 6 have 1 * 6 and
        # 2 * 5 Segre components
        (["birstep", "--n", "6", "--j", "0", "--samples", "3118"], (6 + 10) * (7 + 3118),
         cli.BIRMAP_MAX_SEGRE_CELLS),
        # fiber levels 0..140 carry 141, 140, ..., 1 basis monomials
        (["ext1", "--n", "1", "--j", "71"], 141 * 141, cli.EXT1_MAX_WINDOW_CELLS),
        # the endpoints and 8 taus read splitting types of at most 9
        (["deform", "--n", "1", "--j", "8", "--taus", "0,1,1/2,2,3,1/3,5,-1"], 10 * 20 * 20,
         cli.DEFORM_MAX_SECTION_CELLS),
    ],
)
def test_work_at_the_cap_is_answered(capsys, argv, cells, cap):
    assert cells <= cap
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    if argv[0] == "skeleton":
        assert [c["j"] for c in doc["components"]] == list(range(22))
    elif argv[0] == "potential":
        assert doc["residual_zero"] is True
    elif argv[0] == "duality":
        assert doc["all_ok"] is True and doc["squares"][0]["bir_checked"] == 9992
    elif argv[0] == "ext1":
        assert doc["dimension"] == 141 * 142 // 2
    elif argv[0] == "deform":
        assert [p["splitting"] for p in doc["profile"]] == [9, 8, 8, 8, 8, 8, 8, 8]
    else:
        assert (doc["passed"], doc["checked"]) == (True, int(argv[-1]))


def test_ext1_never_visits_fiber_levels_without_basis_monomials(capsys):
    # above n*b = 2j - 2 no exponent lies strictly between the two cuts, so
    # the basis of (1, 3) stops at fiber level 4
    auto = run(capsys, ["ext1", "--n", "1", "--j", "3", "--format", "json"])
    assert auto[0] == EXIT_OK
    assert json.loads(auto[1])["dimension"] == 5 + 4 + 3 + 2 + 1


def test_duality_cap_admits_the_scaling_curve_to_n_12():
    # --n 2..12 at the default 40 samples is the duality scaling curve the
    # benchmark is to report; 15 is the first n the cap refuses
    assert 11 * (4 * 12 + 40) * 12 <= cli.DUALITY_MAX_SQUARE_CELLS < 14 * (4 * 15 + 40) * 15


class _Overran(BaseException):
    pass


def _overran(signum, frame):
    raise _Overran


_SIZE = st.one_of(st.integers(0, 64), st.integers(0, 10**6), st.integers(0, 10**18))
# every size flag of these commands is capped by the work it asks for
_CAPPED = {
    ("skeleton",): ("--n",),
    ("potential",): ("--n",),
    ("birmap",): ("--a", "--b", "--samples"),
    ("birstep",): ("--n", "--j", "--samples"),
    ("collar", "pic"): ("--n",),
    ("collar", "iso"): ("--n", "--j1", "--j2"),
    ("duality",): ("--n", "--samples"),
    ("ext1",): ("--n", "--j"),
    ("resolve",): ("--n", "--a"),
    ("deform",): ("--n", "--j", "--s"),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_sizes_exit_0_or_2_under_an_alarm(data):
    command = data.draw(st.sampled_from(sorted(_CAPPED)))
    argv = list(command)
    for flag in _CAPPED[command]:
        argv += [flag, str(data.draw(_SIZE))]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", "json"])
    except _Overran:
        pytest.fail(f"{argv} ran past the 5 s alarm")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (EXIT_OK, EXIT_USAGE), (argv, err.getvalue())
    assert err.getvalue() == "" if code == EXIT_OK else err.getvalue().startswith("error: ")


# -- the first failing witness ------------------------------------------------------


@pytest.mark.parametrize(
    "argv,target",
    [
        (["birmap", "--a", "1", "--b", "1", "--samples", "12", "--seed", "3"], "product_to_projective"),
        (["birstep", "--n", "3", "--j", "0", "--samples", "12", "--seed", "3"], "bir_step"),
    ],
)
def test_failed_round_trip_names_its_first_witness(capsys, monkeypatch, argv, target):
    monkeypatch.setattr(birmaps, target, lambda *args: oracles.broken_pair())
    expected = oracles.verify_birational(oracles.broken_pair(), samples=12, seed=3)
    point, image = expected.failures[0]

    code, out, _ = run(capsys, argv)
    assert code == EXIT_VERIFY
    assert "round trip FAILED" in out
    assert f"failures: {len(expected.failures)}" in out
    first = [line for line in out.splitlines() if line.startswith("first failure: ")]
    assert len(first) == 1
    drawn, _, back = first[0].removeprefix("first failure: ").partition(" comes back as ")
    assert drawn == point_text(point)
    assert back.count(" x ") == 1

    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == EXIT_VERIFY
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["failures"] == len(expected.failures)
    assert doc["first_failure"]["point"] == [[str(c) for c in factor] for factor in point]
    back = [[Fraction(c) for c in factor] for factor in doc["first_failure"]["image"]]
    assert projectively_equal(back, image)


def test_successful_round_trip_has_no_witness_key(capsys):
    code, out, _ = run(capsys, ["birmap", "--a", "1", "--b", "1", "--samples", "5", "--format", "json"])
    assert code == EXIT_OK
    assert "first_failure" not in json.loads(out)


def test_failed_duality_square_names_its_first_witness(capsys, monkeypatch):
    monkeypatch.setattr(duality, "bir_step", lambda n, j: oracles.broken_pair())
    expected = oracles.verify_birational(oracles.broken_pair(), samples=10, seed=4)
    drawn = point_text(expected.failures[0][0])

    code, out, _ = run(capsys, ["duality", "--n", "3", "--samples", "10", "--seed", "4"])
    assert code == EXIT_VERIFY
    assert f"first at {drawn}, which comes back as (" in out
    code, out, _ = run(
        capsys, ["duality", "--n", "3", "--samples", "10", "--seed", "4", "--format", "json"]
    )
    assert code == EXIT_VERIFY
    failures = [square["failure"] for square in json.loads(out)["squares"]]
    assert all(f"first at {drawn}, which comes back as (" in f for f in failures)


@pytest.mark.parametrize(
    "argv,module,name,stub,statement",
    [
        (["duality", "--n", "3"], duality, "is_negative_definite", lambda chain: False,
         "toric leg at n = 3: expected both chains are negative definite"),
        (["collar", "pic", "--n", "3"], bundles, "collar_iso_certificate",
         lambda m1, m2: None, "classes 0 and 0 share residue 0 mod 3, but the monomial "
         "frames v side 1, u side 1 fail the certificate check"),
    ],
    ids=["toric-leg", "picard-certificate"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_failed_check_inside_a_report_exits_3(capsys, monkeypatch, argv, module, name, stub,
                                                 statement, fmt):
    # the program, not the input, is at fault: exit 3 with the statement, no traceback
    monkeypatch.setattr(module, name, stub)
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert (code, out, err) == (EXIT_VERIFY, "", f"verification failed: {statement}\n")


# each library check that can fail on the program's own answer, its former
# base, and a call that raises it from the handler's own module lookup
_VERIFICATION_FAILURES = [
    (bundles.BoundTooSmall, RuntimeError,
     ["splitting", "--matrix", str(MATRIX_DIR / "twist3.json")], cli, "splitting_type"),
    (deform.ClassNotGeneric, ValueError, ["deform", "--n", "2", "--j", "1"],
     deform, "index_step_family"),
    (birmaps.IndeterminacyHit, ValueError, ["birstep", "--n", "3", "--j", "0"],
     birmaps, "verify_birational"),
    (birmaps.DegenerateSampler, ValueError, ["birmap", "--a", "1", "--b", "1"],
     birmaps, "product_to_projective"),
]


def test_every_verification_failure_keeps_its_former_base():
    # an `except` or `pytest.raises` on the former base still catches each one
    for cls, base, *_ in _VERIFICATION_FAILURES:
        assert issubclass(cls, base), cls
    assert set(VerificationFailed.__subclasses__()) == {f[0] for f in _VERIFICATION_FAILURES}


@pytest.mark.parametrize("cls,base,argv,module,name", _VERIFICATION_FAILURES,
                         ids=lambda v: v.__name__ if isinstance(v, type) else None)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_verification_failure_from_the_library_exits_3(capsys, monkeypatch, cls, base, argv,
                                                         module, name, fmt):
    def failing(*args, **kwargs):
        raise cls(f"stub {cls.__name__}")

    monkeypatch.setattr(module, name, failing)
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert (code, out, err) == (EXIT_VERIFY, "", f"verification failed: stub {cls.__name__}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_rejected_line_certificate_exits_3_naming_its_frames(capsys, monkeypatch, fmt):
    monkeypatch.setattr(bundles.CollarIsoCertificate, "verify", lambda *args: False)
    code, out, err = run(capsys, ["collar", "iso", "--n", "3", "--j1", "7", "--j2", "1",
                                  "--format", fmt])
    assert (code, out, err) == (
        EXIT_VERIFY, "",
        "verification failed: classes 7 and 1 share residue 1 mod 3, but the monomial "
        "frames v side u^2*z^6, u side u^2 fail the certificate check\n",
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_plain_value_error_from_a_handler_exits_2(capsys, monkeypatch, tmp_path, fmt):
    def failing(n, j):
        raise ValueError("stub input error")

    monkeypatch.setattr(deform, "ext1_basis", failing)
    code, out, err = run(capsys, ["ext1", "--n", "2", "--j", "2", "--format", fmt])
    assert (code, out, err) == (EXIT_USAGE, "", "error: stub input error\n")
    # a file that is not JSON at all raises json.JSONDecodeError, a ValueError
    path = tmp_path / "not.json"
    path.write_text("{not json")
    code, out, err = run(capsys, ["splitting", "--matrix", str(path), "--format", fmt])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: Expecting property name enclosed in double quotes")


# -- every argv exits 0, 2 or 3 -------------------------------------------------------


def test_every_leaf_parser_binds_its_own_handler():
    handlers = [parser.get_default("handler") for _, parser in _PARSERS if _is_leaf(parser)]
    assert len(handlers) == 13
    assert all(callable(handler) for handler in handlers)
    assert len(set(handlers)) == len(handlers)

# small sizes keep every run quick; one value in six is odd, to exercise
# argparse, the config checks and the library's own input checks
_ODD = st.sampled_from(
    ["", "-", "abc", "-1", "-6", "0", "1/2", "1,2", "0,1/3", "1/0", "nan", "1e3", "--n", " 3"]
)


def _mostly(one_in):
    """True except about once in ``one_in`` draws, shrinking towards True."""
    return st.sampled_from([True] * (one_in - 1) + [False])


def _value(draw, flag, action, tmp_dir):
    if not draw(_mostly(6)):
        return draw(_ODD)
    if flag == "--output":
        return draw(st.sampled_from(["", str(tmp_dir), str(tmp_dir / "report")]))
    if flag == "--matrix":
        return draw(st.sampled_from([str(tmp_dir / "missing.json"), str(tmp_dir / "matrix.json")]))
    if action.choices:
        return draw(st.sampled_from(sorted(action.choices)))
    if flag == "--samples":
        return str(draw(st.integers(1, 5)))
    if flag in ("--weights", "--taus"):
        return ",".join(map(str, draw(st.lists(st.integers(-1, 6), max_size=6))))
    return str(draw(st.integers(0, 6)))


@st.composite
def _argvs(draw, tmp_dir):
    path, options = draw(st.sampled_from(_LEAVES))
    argv = list(path)
    for flag, action in draw(st.permutations(options)):
        # optional flags are often left out, required ones rarely
        if not draw(_mostly(16 if action.required else 2)):
            continue
        argv.append(flag)
        if action.nargs != 0 and draw(_mostly(16)):  # a few values are missing
            argv.append(_value(draw, flag, action, tmp_dir))
    return argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_0_2_or_3_without_traceback(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # an odd value after --output names a file here
    one, zero = LaurentPoly.const(1).to_json_dict(), LaurentPoly.zero().to_json_dict()
    twist = LaurentPoly.monomial({"z": 2}).to_json_dict()
    matrix = {"n": 2, "matrix": [[twist, one], [zero, LaurentPoly.monomial({"z": -2}).to_json_dict()]]}
    (tmp_path / "matrix.json").write_text(json.dumps(matrix))
    argv = data.draw(_argvs(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
