"""Segre maps, projections, and birationality certificates."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from skelcollar.birmaps import (
    IndeterminacyHit,
    MapPair,
    RationalMap,
    RationalSampler,
    _integral_point,
    _ptp_keep,
    _run_terms,
    _term_plan,
    bir_step,
    linear_projection,
    point_text,
    product_to_projective,
    projectively_equal,
    segre,
    verify_birational,
)
from skelcollar.exact import LaurentPoly, VerificationFailed

LP = LaurentPoly
F = Fraction


def push(stages, point):
    for stage in stages:
        point = stage.apply(point)
    return point


def mono(*names):
    out = LP.const(1)
    for n in names:
        out = out * LP.var(n)
    return out


def test_segre_components_lexicographic():
    m = segre(1, 1)
    assert m.components == ((mono("y0", "z0"), mono("y0", "z1"), mono("y1", "z0"), mono("y1", "z1")),)
    assert m.target_dims == (3,)


def test_segre_component_set_matches_displayed_block():
    # the displayed (1,1) block lists the same four products
    m = segre(1, 1)
    displayed = {mono("y0", "z0"), mono("y1", "z0"), mono("y0", "z1"), mono("y1", "z1")}
    assert set(m.components[0]) == displayed


def test_segre_trivial_factor_is_identity():
    m = segre(0, 2)
    p = ((F(1),), (F(2), F(3), F(5)))
    assert projectively_equal(m.apply(p), ((F(2), F(3), F(5)),))


def test_segre_two_one_has_six_components():
    m = segre(2, 1)
    assert len(m.components[0]) == 6
    assert m.components[0][0] == mono("y0", "z0")
    assert m.components[0][1] == mono("y0", "z1")
    assert m.components[0][4] == mono("y2", "z0")


def test_linear_projection_point_center():
    m = linear_projection(3, (0, 1, 2))
    assert m.target_dims == (2,)
    p = ((F(1), F(2), F(3), F(4)),)
    assert m.apply(p) == ((F(1), F(2), F(3)),)


def test_linear_projection_line_center():
    m = linear_projection(5, (0, 1, 2, 4))
    p = ((F(1), F(2), F(3), F(4), F(5), F(6)),)
    assert m.apply(p) == ((F(1), F(2), F(3), F(5)),)


def test_linear_projection_keep_all_is_identity():
    m = linear_projection(2, (0, 1, 2))
    p = ((F(7), F(-1), F(3)),)
    assert m.apply(p) == p


def test_linear_projection_indeterminacy():
    m = linear_projection(3, (0, 1, 2))
    with pytest.raises(IndeterminacyHit, match="sample on the indeterminacy locus"):
        m.apply(((F(0), F(0), F(0), F(9)),))


def test_product_to_projective_keep_sets():
    assert _ptp_keep(1, 1) == (0, 1, 2)
    assert _ptp_keep(2, 1) == (0, 1, 2, 4)
    assert product_to_projective(2, 1).forward[1].label == "project(keep=0,1,2,4)"


def test_product_to_projective_one_one_forward():
    pair = product_to_projective(1, 1)
    p = ((F(2), F(3)), (F(5), F(7)))
    # kept coordinates are y0z0, y0z1, y1z0
    assert push(pair.forward, p) == ((F(10), F(14), F(15)),)


def test_product_to_projective_trivial():
    pair = product_to_projective(0, 1)
    p = ((F(4),), (F(3), F(5)))
    image = push(pair.forward, p)
    assert projectively_equal(image, ((F(3), F(5)),))
    back = push(pair.inverse, image)
    assert projectively_equal(back, p)


@pytest.mark.parametrize(
    "a,b",
    [(a, b) for a in range(0, 6) for b in range(0, 6) if 1 <= a + b <= 5],
)
def test_round_trip_both_directions(a, b):
    pair = product_to_projective(a, b)
    v = verify_birational(pair, samples=100, seed=1)
    assert v.passed and v.checked >= 100 - v.skipped
    v_back = verify_birational(MapPair(pair.inverse, pair.forward), samples=100, seed=2)
    assert v_back.passed


def test_rescaling_a_factor_does_not_move_the_image():
    pair = product_to_projective(2, 2)
    sampler = RationalSampler(9)
    for _ in range(20):
        p = sampler.point((2, 2))
        scale = F(0)
        while scale == 0:
            scale = sampler.fraction()
        q = (tuple(scale * c for c in p[0]), p[1])
        try:
            img_p = push(pair.forward, p)
            img_q = push(pair.forward, q)
        except IndeterminacyHit:
            continue
        assert projectively_equal(img_p, img_q)


def test_bir_step_dimensions():
    pair = bir_step(4, 1)
    assert pair.forward[0].source_dims == (1, 2)
    assert pair.forward[-1].target_dims == (2, 1)
    for n in range(2, 7):
        for j in range(0, n - 1):
            p = bir_step(n, j)
            assert sum(p.forward[0].source_dims) == n - 1
            assert sum(p.forward[-1].target_dims) == n - 1


def test_bir_step_out_of_range():
    with pytest.raises(ValueError, match="no step from component 2 in dimension 3"):
        bir_step(3, 2)
    with pytest.raises(ValueError, match="no step from component -1 in dimension 3"):
        bir_step(3, -1)


def test_bir_step_identity_case():
    pair = bir_step(2, 0)
    p = ((F(1),), (F(3), F(11)))
    image = push(pair.forward, p)
    assert projectively_equal((image[0],), ((F(3), F(11)),))
    assert verify_birational(pair, samples=50, seed=1).passed


def test_bir_step_round_trips():
    for n, j in [(4, 1), (5, 2), (3, 1), (6, 2)]:
        pair = bir_step(n, j)
        assert verify_birational(pair, samples=100, seed=1).passed
        assert verify_birational(MapPair(pair.inverse, pair.forward), samples=100, seed=3).passed


def test_map_pair_refuses_stages_that_do_not_chain():
    # segre(1, 1) lands in P^3, which split(1, 1) does not read
    split = product_to_projective(1, 1).inverse
    with pytest.raises(ValueError, match=r"^stage mismatch: \(3,\) feeds \(2,\)$"):
        MapPair((segre(1, 1),) + split, split)
    with pytest.raises(ValueError, match=r"^stage mismatch: \(1, 1\) feeds \(3,\)$"):
        MapPair(product_to_projective(1, 1).forward, split + (linear_projection(3, (0, 1)),))


def test_map_pair_refuses_an_empty_stage_tuple():
    pair = product_to_projective(1, 1)
    for forward, inverse in [((), pair.inverse), (pair.forward, ()), ((), ())]:
        with pytest.raises(ValueError, match="at least one stage"):
            MapPair(forward, inverse)


def test_verify_detects_non_invertible_map():
    verdict = verify_birational(oracles.broken_pair(), samples=30, seed=1)
    assert not verdict.passed
    assert verdict.failures


def test_all_zero_components_rejected():
    zero = LP.zero()
    with pytest.raises(ValueError):
        RationalMap((1,), (1,), (("y0", "y1"),), ((zero, zero),), "zero")


def test_degenerate_sampler():
    # forward embeds into the plane u2 = 0, which is exactly where the
    # claimed inverse is undefined, so every sample is skipped
    y0, y1 = LP.var("y0"), LP.var("y1")
    u2 = LP.var("u2")
    fwd = RationalMap((1,), (2,), (("y0", "y1"),), ((y0, y1, LP.zero()),), "into u2 = 0")
    inv = RationalMap((2,), (1,), (("u0", "u1", "u2"),), ((u2, u2),), "undefined on u2 = 0")
    with pytest.raises(VerificationFailed, match=re.escape(
            "all 10 samples hit indeterminacy loci (even with retries)")):
        verify_birational(MapPair((fwd,), (inv,)), samples=10, seed=1)


def test_sampler_is_deterministic():
    a = RationalSampler(1)
    b = RationalSampler(1)
    assert [a.fraction() for _ in range(10)] == [b.fraction() for _ in range(10)]
    c = RationalSampler(2)
    assert [a.fraction() for _ in range(5)] != [c.fraction() for _ in range(5)]


def test_point_text_lists_homogeneous_coordinates_per_factor():
    assert point_text(((F(1), F(-1, 2)), (3, 0, 1))) == "(1 : -1/2) x (3 : 0 : 1)"


def test_projective_equality():
    assert projectively_equal(((F(1), F(2)),), ((F(2), F(4)),))
    assert not projectively_equal(((F(1), F(2)),), ((F(2), F(5)),))
    assert not projectively_equal(((F(0), F(0)),), ((F(0), F(0)),))


_COORDS = st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 4)])
_FACTORS = st.lists(st.lists(_COORDS, min_size=1, max_size=4).map(tuple), min_size=1, max_size=3)


@st.composite
def point_pairs(draw):
    """A point and a second one that is a multiple of it factor by factor
    (the multiple may be 0), such a multiple with one coordinate moved, or
    an unrelated point, whose factors may differ in number and length."""
    p = tuple(draw(_FACTORS))
    kind = draw(st.sampled_from(["multiple", "moved", "unrelated"]))
    if kind == "unrelated":
        return p, tuple(draw(_FACTORS))
    scales = draw(st.lists(_COORDS, min_size=len(p), max_size=len(p)))
    q = [tuple(c * s for c in f) for f, s in zip(p, scales)]
    if kind == "moved":
        i = draw(st.integers(0, len(q) - 1))
        k = draw(st.integers(0, len(q[i]) - 1))
        q[i] = q[i][:k] + (q[i][k] + draw(_COORDS),) + q[i][k + 1 :]
    return p, tuple(q)


@given(point_pairs())
@example((((F(0), F(2)),), ((F(3), F(2)),)))
@example((((F(1), F(2)),), ((F(1), F(2), F(0)),)))
def test_projective_equality_matches_every_pair_of_coordinates(pair):
    p, q = pair
    expected = oracles.projectively_equal_pairwise(p, q)
    assert projectively_equal(p, q) == projectively_equal(q, p) == expected


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -3}])
def test_verify_rejects_nonpositive_counts(kwargs):
    with pytest.raises(ValueError, match="at least 1") as info:
        verify_birational(product_to_projective(1, 1), seed=1, **kwargs)
    assert not isinstance(info.value, VerificationFailed)


# -- the compiled evaluation against the bindings-dict oracle ---------------------


def assert_same_verdict(verdict, expected):
    assert (verdict.checked, verdict.skipped, verdict.passed) == (
        expected.checked,
        expected.skipped,
        expected.passed,
    )
    assert len(verdict.failures) == len(expected.failures)
    for (point, image), (point0, image0) in zip(verdict.failures, expected.failures):
        assert point == point0
        assert all(type(c) is Fraction for factor in point for c in factor)
        assert projectively_equal(image, image0)


ORACLE_PAIRS = (
    [(f"bir_step({n},{j})", n, j) for n in range(2, 9) for j in range(n - 1)]
    + [(f"ptp({a},{b})", a, b) for a in range(7) for b in range(7) if 1 <= a + b <= 6]
)


@pytest.mark.parametrize("name,x,y", ORACLE_PAIRS, ids=[c[0] for c in ORACLE_PAIRS])
def test_verdict_matches_fraction_oracle(name, x, y):
    pair = bir_step(x, y) if name.startswith("bir_step") else product_to_projective(x, y)
    for seed in (1, 2, 3):
        expected = oracles.verify_birational(pair, samples=40, seed=seed)
        assert_same_verdict(verify_birational(pair, samples=40, seed=seed), expected)


def test_broken_inverse_verdict_matches_fraction_oracle():
    for seed in (1, 2, 3):
        pair = oracles.broken_pair()
        expected = oracles.verify_birational(pair, samples=30, seed=seed)
        assert expected.failures
        assert_same_verdict(verify_birational(pair, samples=30, seed=seed), expected)


def test_apply_matches_oracle_on_fraction_and_integer_points():
    sampler = RationalSampler(5)
    for n, j in [(4, 1), (6, 2), (7, 0)]:
        pair = bir_step(n, j)
        for m in (pair.forward, pair.inverse):
            for _ in range(10):
                point = sampler.point(m[0].source_dims)
                try:
                    expected = oracles.apply_map(m, point)
                except IndeterminacyHit:
                    continue
                assert push(m, point) == expected
                assert projectively_equal(push(m, _integral_point(point)), expected)


def test_integral_point_scales_each_factor_by_its_denominators():
    point = ((F(1, 2), F(-2, 3), F(0)), (F(5, 4), F(3)))
    assert _integral_point(point) == ((3, -4, 0), (5, 12))
    assert all(type(c) is int for factor in _integral_point(point) for c in factor)
    assert projectively_equal(_integral_point(point), point)


def test_plan_stays_out_of_equality_hash_and_repr():
    m = segre(1, 2)
    twin = RationalMap(m.source_dims, m.target_dims, m.source_vars, m.components, m.label)
    assert m == twin and hash(m) == hash(twin)
    assert "_plan" not in repr(m)


def test_name_shared_by_two_factors_takes_the_later_value():
    x1 = LP.var("x1")
    m = RationalMap((1, 1), (1,), (("x0", "x1"), ("x1", "x2")), ((x1, 2 * x1),), "shared")
    point = ((F(2), F(3)), (F(5), F(7)))
    assert m.apply(point) == oracles.apply_map((m,), point) == ((F(5), F(10)),)


@pytest.mark.parametrize(
    "groups,components,error",
    [
        ((("y0", "y1"),), (("y0 + y1^2", "y1"),), "component y0 + y1^2 not homogeneous in ('y0', 'y1')"),
        ((("y0", "y1"),), (("y0", "y1^2"),), "components have mixed degrees {1, 2} in ('y0', 'y1')"),
        ((("y0", "y1"), ("y1", "y2")), (("y0*y1", "y1*y2"),),
         "components have mixed degrees {1, 2} in ('y0', 'y1')"),
        ((("y0", "y1"), ("y1", "y2")), (("y0*y1", "y1^2"),),
         "components have mixed degrees {1, 2} in ('y1', 'y2')"),
    ],
)
def test_components_must_be_homogeneous_of_one_degree_per_group(groups, components, error):
    polys = {
        "y0 + y1^2": mono("y0") + mono("y1", "y1"), "y0": mono("y0"), "y1": mono("y1"),
        "y1^2": mono("y1", "y1"), "y0*y1": mono("y0", "y1"), "y1*y2": mono("y1", "y2"),
    }
    comps = tuple(tuple(polys[c] for c in factor) for factor in components)
    with pytest.raises(ValueError) as info:
        RationalMap((1,) * len(groups), (1,), groups, comps, "mixed")
    assert str(info.value) == error


def test_component_outside_source_variables_rejected():
    x = LP.var("x")
    with pytest.raises(ValueError, match="not source variables"):
        RationalMap((1,), (1,), (("y0", "y1"),), ((x, x),), "outside")


_POINT_VALUES = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 7)])


@st.composite
def laurent_cases(draw):
    """A Laurent polynomial in up to four of x0..x3 with mixed-sign
    exponents and non-integer coefficients, a layout of the variables in
    the flattened point that need not follow their sorted order, and a
    point with frequent zeros."""
    names = draw(st.lists(st.sampled_from(["x0", "x1", "x2", "x3"]), unique=True, max_size=4))
    exps = st.tuples(*[st.integers(-3, 3)] * len(names))
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    poly = LP(names, draw(st.dictionaries(exps, coeffs, max_size=5)))
    layout = draw(st.permutations(["x0", "x1", "x2", "x3"]))
    point = draw(st.tuples(*[_POINT_VALUES] * 4))
    return poly, layout, point


def evaluation(fn):
    """The value, or the refusal of a 0 under a negative power."""
    try:
        return fn()
    except ValueError as exc:
        if "which occurs with exponent" not in str(exc):
            raise
        return "0 under a negative power"


@given(laurent_cases())
# the oracle meets x0 before x1: the 0 under x0^1 ends the term before the 0
# under x1^-1 can raise, wherever the layout puts the two
@example((LP(("x0", "x1"), {(1, -1): 1}), ("x1", "x0", "x2", "x3"), (F(0),) * 4))
def test_plan_matches_laurent_evaluate(case):
    poly, layout, point = case
    terms = _term_plan(poly, {v: i for i, v in enumerate(layout)})
    expected = evaluation(lambda: oracles.evaluate(poly, dict(zip(layout, point))))
    assert evaluation(lambda: _run_terms(terms, point)) == expected
    # integer points, as verify_birational feeds the maps
    ints = tuple(c.numerator for c in point)
    expected = evaluation(lambda: oracles.evaluate(poly, dict(zip(layout, ints))))
    assert evaluation(lambda: _run_terms(terms, ints)) == expected
