"""End-to-end acceptance checks.

Each test exercises one headline capability through its public entry
point, asserts exact values, and enforces the stated runtime budget.
"""

import json
import time
from fractions import Fraction

from oracles import closed_form
from skelcollar import deform, duality
from skelcollar.birmaps import MapPair, _ptp_keep, product_to_projective, verify_birational
from skelcollar.bundles import compare_line_bundles, moduli_dimension, picard_group
from skelcollar.cli import EXIT_OK, main
from skelcollar.deform import family_splitting_profile, index_step_family
from skelcollar.duality import square_check
from skelcollar.exact import LaurentPoly
from skelcollar.potential import hamiltonian_residual, solve_potential
from skelcollar.skeleton import skeleton
from skelcollar.toric import (
    QuotientSingularity,
    hj_expansion,
    minimal_resolution,
    quotient_cone,
)


def test_cotangent_three_space_components_via_cli(capsys):
    start = time.monotonic()
    code = main(["skeleton", "--n", "3"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
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
    assert elapsed < 1.0


def test_chart_computation_matches_closed_form():
    start = time.monotonic()
    for n in range(1, 7):
        components = skeleton(n)
        assert [c.j for c in components] == list(range(n + 1))
        for comp in components:
            assert (comp.description, comp.shape_json()) == closed_form(n, comp.j), (n, comp.j)
    assert time.monotonic() - start < 10.0


def test_weighted_potential_closed_form():
    for n in range(1, 7):
        weights = tuple(range(1, n + 1))
        pot = solve_potential(weights, 2)
        expected = LaurentPoly.var("c")
        for i in range(1, n + 1):
            expected = expected + LaurentPoly.monomial(
                {f"x{i}": 1, f"y{i}": 1}, -2 * i
            )
        assert pot.h == expected, n
        assert hamiltonian_residual(pot, weights).is_zero, n


def test_quotient_resolutions_and_cone_duality():
    for n in range(2, 13):
        assert hj_expansion(n, 1) == [n]
        assert hj_expansion(n, n - 1) == [2] * (n - 1)

        chain = minimal_resolution(QuotientSingularity(n, n - 1))
        size = n - 1
        expected = tuple(
            tuple(
                -2 if row == col else (1 if abs(row - col) == 1 else 0)
                for col in range(size)
            )
            for row in range(size)
        )
        assert chain.intersection_matrix == expected, n

        if n >= 3:
            sharp = quotient_cone(QuotientSingularity(n, 1))
            flat = quotient_cone(QuotientSingularity(n, n - 1))
            assert sharp.dual() == flat
            assert flat.dual() == sharp

    # the two families coincide at order two, where the cone is its own dual
    # up to a unimodular change of basis
    self_dual = quotient_cone(QuotientSingularity(2, 1))
    assert self_dual.is_equivalent(self_dual.dual())


def test_residue_classes_and_exhaustive_certificates():
    start = time.monotonic()
    for n in range(1, 7):
        group = picard_group(n)
        assert group.classes == tuple(range(n))
        for i in range(n):
            for j in range(n):
                assert group.table[i][j] == (i + j) % n

        for j1 in range(-2 * n, 2 * n + 1):
            for j2 in range(-2 * n, 2 * n + 1):
                comparison = compare_line_bundles(n, j1, j2)
                congruent = (j1 - j2) % n == 0
                assert comparison.isomorphic == congruent, (n, j1, j2)
                assert (comparison.certificate is not None) == congruent
    assert time.monotonic() - start < 30.0


def test_moduli_dimension_grid():
    for n in range(1, 9):
        for j in range(0, 9):
            result = moduli_dimension(n, j)
            expected = 2 * j - n - 2
            if expected >= 0:
                assert result.dimension == expected, (n, j)
            else:
                assert result.dimension is None, (n, j)
                assert result.note, (n, j)


def test_deformation_endpoints_and_window_stability():
    start = time.monotonic()
    taus = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3))
    for n in range(1, 4):
        for j in range(0, 3):
            for s in range(1, 3):
                family = index_step_family(n, j, s)
                profile = family_splitting_profile(family, taus)
                assert profile == (j + s, j, j, j), (n, j, s)
    assert time.monotonic() - start < 60.0


def test_product_collapse_round_trips_and_keep_sets():
    start = time.monotonic()
    for a in range(1, 5):
        for b in range(1, 6 - a):
            pair = product_to_projective(a, b)
            forward = verify_birational(pair, samples=100, seed=1)
            assert forward.passed and forward.checked >= 100, (a, b)
            backward = verify_birational(MapPair(pair.inverse, pair.forward), samples=100, seed=1)
            assert backward.passed and backward.checked >= 100, (a, b)
    assert _ptp_keep(1, 1) == (0, 1, 2)
    assert _ptp_keep(2, 1) == (0, 1, 2, 4)
    assert product_to_projective(2, 1).forward[1].label == "project(keep=0,1,2,4)"
    assert time.monotonic() - start < 10.0


def test_duality_pipeline_and_falsifiability(capsys, monkeypatch):
    start = time.monotonic()
    for n in range(2, 9):
        code = main(["duality", "--n", str(n)])
        out = capsys.readouterr().out
        assert code == EXIT_OK, n
        assert "all squares verified: yes" in out, n
        assert out.count("square ") == n - 1, n

    honest = square_check(6, 2, 40, 1)
    assert honest.verdict is True
    # a collar family two rows up must fail the square, not pass by definition
    monkeypatch.setattr(duality, "index_step_family",
                        lambda n, j, s: deform.index_step_family(n, j, s + 1))
    corrupted = square_check(6, 2, 40, 1)
    assert corrupted.verdict is False
    assert corrupted.failure == "family endpoints (4, 2) do not step the splitting from 3 to 2"
    assert time.monotonic() - start < 120.0


def test_duality_json_is_machine_readable(capsys):
    code = main(["duality", "--n", "5", "--format", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 5
    assert doc["all_ok"] is True
    assert len(doc["entries"]) == 5
    assert len(doc["squares"]) == 4
