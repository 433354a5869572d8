"""Cones, continued fractions, resolutions."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import cofactor_det, cone_contains, hj_evaluate, is_unimodular_subdivision
from skelcollar.toric import (
    Cone2D,
    InvalidInput,
    QuotientSingularity,
    dynkin_dual_graph,
    hj_expansion,
    hj_length,
    is_negative_definite,
    leading_principal_minors,
    minimal_resolution,
    quotient_cone,
)

QS = QuotientSingularity


def valid_weights(n):
    if n == 1:
        return [1]
    return [a for a in range(1, n) if gcd(a, n) == 1]


def test_singularity_validation():
    QS(5, 2)
    QS(1, 1)
    with pytest.raises(InvalidInput):
        QS(6, 4)
    with pytest.raises(InvalidInput):
        QS(5, 0)
    with pytest.raises(InvalidInput):
        QS(5, 5)
    with pytest.raises(InvalidInput):
        QS(0, 1)


def test_quotient_cone_weight_one():
    c = quotient_cone(QS(3, 1))
    assert set(c.rays) == {(1, 0), (-1, 3)}
    assert c.index == 3


def test_quotient_cone_inverse_weight():
    c = quotient_cone(QS(3, 2))
    assert set(c.rays) == {(0, 1), (3, 1)}
    assert c.index == 3


def test_quotient_cone_smooth():
    c = quotient_cone(QS(1, 1))
    assert set(c.rays) == {(1, 0), (0, 1)}
    assert c.index == 1


def test_cone_rays_counterclockwise_and_primitive():
    for n in range(2, 9):
        for a in valid_weights(n):
            c = quotient_cone(QS(n, a))
            assert c.ray1[0] * c.ray2[1] - c.ray1[1] * c.ray2[0] == n
            assert gcd(*c.ray1) == 1 and gcd(*c.ray2) == 1


def test_dual_of_weight_one_cone():
    c = Cone2D((1, 0), (-1, 3))
    assert set(c.dual().rays) == {(0, 1), (3, 1)}


def test_quadrant_is_self_dual():
    q = Cone2D((1, 0), (0, 1))
    assert q.dual() == q


def test_biduality_random():
    rng = random.Random(5)
    made = 0
    while made < 40:
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v[0] * w[1] - v[1] * w[0] < 0:
            v, w = w, v
        try:
            c = Cone2D(v, w)
        except InvalidInput:
            continue
        made += 1
        assert c.dual().dual() == c


def test_self_dual_order_two():
    c = quotient_cone(QS(2, 1))
    assert c.is_equivalent(c.dual())


def test_dual_exchanges_the_two_families():
    for n in range(3, 13):
        assert quotient_cone(QS(n, 1)).dual() == quotient_cone(QS(n, n - 1))
        assert quotient_cone(QS(n, n - 1)).dual() == quotient_cone(QS(n, 1))


def test_normal_form_examples():
    assert quotient_cone(QS(3, 1)).normal_form() == (3, 1)
    assert quotient_cone(QS(3, 2)).normal_form() == (3, 2)
    # weights inverse mod n give equivalent cones (coordinate swap)
    assert quotient_cone(QS(5, 3)).normal_form() == quotient_cone(QS(5, 2)).normal_form()


def test_contains():
    c = Cone2D((1, 0), (-1, 3))
    assert cone_contains(c, (0, 1))
    assert cone_contains(c, (1, 0))
    assert not cone_contains(c, (0, -1))
    assert not cone_contains(c, (-1, 0))


def test_hj_known_values():
    assert hj_expansion(5, 1) == [5]
    assert hj_expansion(5, 4) == [2, 2, 2, 2]
    assert hj_expansion(7, 3) == [3, 2, 2]
    # the length needs no expansion: n / (n - 1) has n - 1 coefficients
    assert hj_length(10**18, 10**18 - 1) == 10**18 - 1
    assert hj_length(10**18, 1) == 1


def test_hj_validation():
    for expand in (hj_expansion, hj_length):
        with pytest.raises(InvalidInput):
            expand(4, 2)
        with pytest.raises(InvalidInput):
            expand(3, 0)
        with pytest.raises(InvalidInput):
            expand(3, 3)


def test_hj_round_trip_all_small():
    for n in range(2, 51):
        for q in valid_weights(n):
            coeffs = hj_expansion(n, q)
            assert all(c >= 2 for c in coeffs)
            assert hj_evaluate(coeffs) == Fraction(n, q)
            assert hj_length(n, q) == len(coeffs)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=10**4), data=st.data())
def test_hj_length_counts_the_expansion(n, data):
    # the continued-fraction length against the walk it replaces in the cap
    q = data.draw(st.integers(min_value=1, max_value=n - 1))
    assume(gcd(n, q) == 1)
    assert hj_length(n, q) == len(hj_expansion(n, q))


def test_resolution_inverse_weight_chain():
    r = minimal_resolution(QS(4, 3))
    assert r.rays == ((1, 1), (2, 1), (3, 1))
    assert r.self_intersections == (-2, -2, -2)
    assert r.intersection_matrix == ((-2, 1, 0), (1, -2, 1), (0, 1, -2))


def test_resolution_weight_one_chain():
    r = minimal_resolution(QS(4, 1))
    assert r.rays == ((0, 1),)
    assert r.self_intersections == (-4,)


def test_resolution_order_two_agrees_with_its_dual_type():
    r = minimal_resolution(QS(2, 1))
    assert r.rays == ((0, 1),)
    assert r.self_intersections == (-2,)


def test_resolution_smooth_case_is_empty():
    r = minimal_resolution(QS(1, 1))
    assert r.rays == ()
    assert r.self_intersections == ()


def test_resolution_subdivision_properties():
    for n in range(2, 13):
        for a in valid_weights(n):
            r = minimal_resolution(QS(n, a))
            assert is_unimodular_subdivision(r, QS(n, a))
            assert all(c <= -2 for c in r.self_intersections)
            assert r.self_intersections == tuple(-c for c in hj_expansion(n, a))
            cone = r.cone
            assert all(cone_contains(cone, v) for v in r.rays)


def test_intersection_matrix_negative_definite():
    for n in range(2, 13):
        for a in valid_weights(n):
            assert is_negative_definite(minimal_resolution(QS(n, a)).self_intersections)


def test_chain_minors_match_cofactor_expansion():
    # every chain with n <= 40: the continuants are the leading minors of
    # the intersection matrix, and the last one is (-1)^r * n
    for n in range(1, 41):
        for a in valid_weights(n):
            chain = minimal_resolution(QS(n, a))
            m = [list(row) for row in chain.intersection_matrix]
            minors = leading_principal_minors(chain.self_intersections)
            assert minors == [cofactor_det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
            assert ([1] + minors)[-1] == (-1) ** len(minors) * n  # D_0 = 1 when n = 1


def test_sylvester_rule_on_chains_that_are_not_minimal():
    # a -1 curve next to a -1 curve, a 0 curve or a positive one is not
    # negative definite; the sign rule must see it
    assert leading_principal_minors((-2, -2, -2)) == [-2, 3, -4]
    assert is_negative_definite((-2, -2, -2))
    assert not is_negative_definite((-1, -1))  # D_2 = 1 - 1 = 0
    assert not is_negative_definite((-2, 0))
    assert not is_negative_definite((1,))
    assert is_negative_definite(())
    # the matrix itself is refused, not misread as a sequence of numbers
    with pytest.raises(TypeError):
        is_negative_definite(minimal_resolution(QS(7, 3)).intersection_matrix)


def test_dynkin_graph_path():
    g = dynkin_dual_graph(minimal_resolution(QS(5, 4)))
    assert len(g.vertices) == 4
    assert g.is_path()
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_dynkin_graph_single_vertex():
    for s in (QS(3, 1), QS(2, 1)):
        g = dynkin_dual_graph(minimal_resolution(s))
        assert len(g.vertices) == 1
        assert g.edges == ()
