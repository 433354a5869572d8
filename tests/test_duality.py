"""Index pairing, inverse assignment, and commuting-square certificates."""

import json
import re

import pytest

from oracles import dual_of_bundle_pair
from skelcollar import deform, duality, toric
from skelcollar.bundles import BundleTransition, collar_iso_certificate
from skelcollar.duality import (
    DualityReport,
    dual_of_lagrangian,
    duality_report,
    square_check,
)
from skelcollar.exact import VerificationFailed
from skelcollar.skeleton import skeleton
from skelcollar.toric import Cone2D, DynkinGraph, ResolutionChain


# ---------------------------------------------------------------------------
# the pairing


def test_pair_examples():
    assert dual_of_lagrangian(4, 1) == (1, 3)
    for n in (1, 2, 5, 9):
        assert dual_of_lagrangian(n, 0) == (0, 0)


def test_pair_matches_normal_form_residues():
    # the residues of the partner bundles, read off as the one class in
    # 0..n-1 a frame-change certificate reaches, not by modular arithmetic
    def residue(n, j):
        line = BundleTransition.line_class
        (r,) = [r for r in range(n) if collar_iso_certificate(line(n, j), line(n, r)) is not None]
        return r

    expected = (residue(3, 2), residue(3, -2))
    assert dual_of_lagrangian(3, 2) == expected == (2, 1)


def test_pair_range():
    with pytest.raises(ValueError, match="no skeleton component 4 for collar parameter 4"):
        dual_of_lagrangian(4, 4)
    with pytest.raises(ValueError, match="no skeleton component -1 for collar parameter 4"):
        dual_of_lagrangian(4, -1)
    with pytest.raises(ValueError):
        dual_of_lagrangian(0, 0)


def test_inverse_assignment():
    assert dual_of_bundle_pair(4, (1, 3)) == 1
    for n in (2, 3, 7):
        assert dual_of_bundle_pair(n, (0, 0)) == 0


def test_round_trip_is_identity():
    for n in range(1, 13):
        for j in range(n):
            assert dual_of_bundle_pair(n, dual_of_lagrangian(n, j)) == j


def test_inverse_rejects_non_pairs():
    with pytest.raises(ValueError, match=re.escape("residues (1, 2) are not negatives mod 4")):
        dual_of_bundle_pair(4, (1, 2))
    with pytest.raises(ValueError, match=re.escape("residues (0, 3) are not negatives mod 5")):
        dual_of_bundle_pair(5, (0, 3))
    with pytest.raises(ValueError):
        dual_of_bundle_pair(4, (1, 7))
    with pytest.raises(ValueError):
        dual_of_bundle_pair(4, (-1, 1))


def test_component_count_equals_residue_count():
    for n in range(2, 9):
        components = skeleton(n - 1)
        residues = {dual_of_lagrangian(n, j)[0] for j in range(n)}
        assert len(components) == n
        assert residues == set(range(n))


# ---------------------------------------------------------------------------
# squares


def test_square_reference_case():
    report = square_check(4, 1, 40, 1)
    assert report.verdict
    assert report.failure is None
    assert report.bir_verdict.passed
    assert report.bir_verdict.checked > 0
    assert report.def_endpoints == (2, 1)
    square = duality_report(4, 40, 1).to_json_dict()["squares"][1]
    assert (square["j"], square["verdict"], square["failure"]) == (1, True, None)
    assert square["lower_pair"] == [1, 3]
    assert square["upper_pair"] == [2, 2]
    assert square["def_endpoints"] == [2, 1]
    assert square["def_pair"] == [2, 2]


def test_square_smallest_case():
    # both step factors are essentially the identity on the line
    report = square_check(2, 0, 40, 1)
    assert report.verdict
    assert report.bir_verdict.checked > 0
    assert report.def_endpoints == (1, 0)
    (square,) = duality_report(2, 40, 1).to_json_dict()["squares"]
    assert square["verdict"] is True
    assert square["lower_pair"] == [0, 0]
    assert square["upper_pair"] == [1, 1]


def test_squares_all_verify_at_six():
    for j in range(5):
        assert square_check(6, j, samples=20, seed=1).verdict


def step_two_family(n, j, s):
    # the collar family two rows up, in place of the index step of one
    return deform.index_step_family(n, j, s + 1)


def test_wrong_step_flips_the_verdict(monkeypatch):
    assert square_check(6, 0, 40, 1).verdict
    monkeypatch.setattr(duality, "index_step_family", step_two_family)
    report = square_check(6, 0, 40, 1)
    assert not report.verdict
    assert report.failure == "family endpoints (2, 0) do not step the splitting from 1 to 0"
    assert report.def_endpoints == (2, 0)
    doc = DualityReport(n=6, entries=(), squares=(report,)).to_json_dict()
    (square,) = doc["squares"]
    assert square["verdict"] is False and doc["all_ok"] is False
    assert square["failure"] == report.failure
    assert square["def_endpoints"] == [2, 0]
    assert square["def_pair"] == [2, 4]
    assert (square["lower_pair"], square["upper_pair"]) == ([0, 0], [1, 5])


def test_square_checks_family_endpoints_once(monkeypatch):
    # the family builder already computes and checks both endpoint
    # splittings; the square reads them back instead of recomputing
    calls = []
    real = deform.splitting_type

    def counted(trans):
        calls.append(trans)
        return real(trans)

    monkeypatch.setattr(deform, "splitting_type", counted)
    for n, j in ((2, 0), (4, 1), (5, 3)):
        del calls[:]
        report = square_check(n, j, samples=5, seed=1)
        assert len(calls) == 2
        assert report.def_endpoints == (j + 1, j)


def test_square_index_range():
    with pytest.raises(ValueError, match="no square at index 2 for collar parameter 3"):
        square_check(3, 2, 40, 1)
    with pytest.raises(ValueError, match="no square at index -1 for collar parameter 3"):
        square_check(3, -1, 40, 1)


# ---------------------------------------------------------------------------
# the report


def test_report_counts_small():
    report = duality_report(2, 40, 1)
    assert len(report.entries) == 2
    assert len(report.squares) == 1
    assert report.all_ok

    report = duality_report(3, 40, 1)
    assert len(report.entries) == 3
    assert len(report.squares) == 2
    assert report.all_ok


def test_report_entry_contents():
    report = duality_report(3, 40, 1)
    assert [e.collar_pair for e in report.entries] == [(0, 0), (1, 2), (2, 1)]
    assert [e.component.j for e in report.entries] == [0, 1, 2]


def test_report_text_rendering():
    text = duality_report(3, 40, 1).to_text()
    assert "collar parameter n = 3" in text
    assert "all squares verified: yes" in text
    assert "square 1 -> 2" in text


def test_report_json_rendering():
    data = duality_report(3, 40, 1).to_json_dict()
    assert data["n"] == 3
    assert data["all_ok"] is True
    assert data["entries"][1]["collar_pair"] == [1, 2]
    assert data["squares"][0]["verdict"] is True
    json.dumps(data)  # must be serializable as given


def test_report_deterministic():
    first = duality_report(3, samples=10, seed=5)
    second = duality_report(3, samples=10, seed=5)
    assert first.to_json_dict() == second.to_json_dict()
    assert isinstance(first, DualityReport)


def test_report_validation():
    with pytest.raises(ValueError):
        duality_report(1, 40, 1)


# ---------------------------------------------------------------------------
# the toric leg


def test_toric_leg_holds_wherever_the_duality_cap_admits(monkeypatch):
    # n = 2..14, the range the CLI cap admits at the default samples; the
    # squares are stubbed out, so only the rows and the leg are built
    monkeypatch.setattr(duality, "square_check", lambda n, j, samples, seed: None)
    for n in range(2, 15):
        assert len(duality_report(n, 40, 1).entries) == n


def _wider_sharp_cone(s):
    """The cone of 1/(n+1)(1,1) in place of that of 1/n(1,1)."""
    return Cone2D((1, 0), (-1, s.n + 1)) if s.a == 1 else toric.quotient_cone(s)


def _one_minus_three(weight):
    """minimal_resolution with the first curve of the weight-``weight``
    chain turned into a (-3)-curve."""
    def resolve(s):
        chain = toric.minimal_resolution(s)
        if s.a != weight:
            return chain
        curves = (-3,) + chain.self_intersections[1:]
        return ResolutionChain(chain.cone, chain.rays, curves)
    return resolve


def _closed_into_a_cycle(chain):
    graph = toric.dynkin_dual_graph(chain)
    return DynkinGraph(graph.vertices, graph.edges + ((0, len(graph.vertices) - 1),))


@pytest.mark.parametrize(
    "name,fake,statement",
    [
        ("quotient_cone", _wider_sharp_cone,
         "the dual of the 1/n(1,1) cone is the 1/n(1,n-1) cone"),
        ("minimal_resolution", _one_minus_three(1), "1/n(1,1) resolves to one (-n)-curve"),
        ("minimal_resolution", _one_minus_three(3),
         "1/n(1,n-1) resolves to (-2)-curves whose torus-fixed points match the skeleton "
         "components"),
        ("dynkin_dual_graph", _closed_into_a_cycle,
         "the dual graph of the 1/n(1,n-1) chain is a path"),
        # a positive curve ahead of the chain makes the first leading minor positive
        ("is_negative_definite", lambda curves: toric.is_negative_definite((1,) + tuple(curves)),
         "both chains are negative definite"),
    ],
    ids=["dual-cone", "sharp-curve", "flat-chain", "dual-graph", "sylvester"],
)
def test_report_raises_on_a_broken_toric_leg(monkeypatch, name, fake, statement):
    monkeypatch.setattr(duality, name, fake)
    expected = re.escape(f"toric leg at n = 4: expected {statement}")
    with pytest.raises(VerificationFailed, match=expected):
        duality_report(4, 40, 1)
