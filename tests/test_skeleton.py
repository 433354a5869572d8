"""Atlas transitions, torus action pushforward, stable manifolds."""

import itertools
import re

import pytest

from oracles import closed_form, cocycle_holds
from skelcollar.exact import LaurentPoly, VerificationFailed
from skelcollar.skeleton import (
    ActionChartExpr,
    CotangentAtlas,
    SkeletonComponent,
    _reduce_constraints,
    act,
    classify_component,
    skeleton,
    stable_manifold,
)

LP = LaurentPoly


def v(name):
    return LP.var(name)


def test_transition_first_chart_dimension_three():
    atlas = CotangentAtlas(3)
    x1, x2, x3 = v("x1"), v("x2"), v("x3")
    expected = (
        (-(x1**2), -x1 * x2, -x1 * x3),
        (0, x1, 0),
        (0, 0, x1),
    )
    assert atlas.transition(0, 1) == expected


def test_transition_second_and_third_charts_dimension_three():
    atlas = CotangentAtlas(3)
    x1, x2, x3 = v("x1"), v("x2"), v("x3")
    assert atlas.transition(0, 2) == (
        (-x1 * x2, -(x2**2), -x2 * x3),
        (x2, 0, 0),
        (0, 0, x2),
    )
    assert atlas.transition(0, 3) == (
        (-x1 * x3, -x2 * x3, -(x3**2)),
        (x3, 0, 0),
        (0, x3, 0),
    )


def test_transition_dimension_one():
    atlas = CotangentAtlas(1)
    x1 = v("x1")
    assert atlas.transition(0, 1) == ((-(x1**2),),)


def test_transition_pattern_dimension_four():
    atlas = CotangentAtlas(4)
    for j in range(1, 5):
        t = atlas.transition(0, j)
        xj = v(f"x{j}")
        rows_idx = atlas.slots(j)
        cols_idx = atlas.slots(0)
        for rpos, m in enumerate(rows_idx):
            for cpos, k in enumerate(cols_idx):
                entry = t[rpos][cpos]
                if m == 0:
                    assert entry == -xj * v(f"x{k}") if k != j else -(xj**2)
                elif k == m:
                    assert entry == xj
                else:
                    assert entry.is_zero


def test_transition_identity_on_same_chart():
    atlas = CotangentAtlas(3)
    for i in range(4):
        t = atlas.transition(i, i)
        for r in range(3):
            for c in range(3):
                assert t[r][c] == (LP.const(1) if r == c else LP.zero())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cocycle_condition(n):
    atlas = CotangentAtlas(n)
    for i, j, k in itertools.product(range(n + 1), repeat=3):
        if len({i, j, k}) < 3:
            continue
        assert cocycle_holds(atlas, i, j, k), (i, j, k)


def test_act_on_chart_zero_matches_weight_convention():
    atlas = CotangentAtlas(3)
    expr = act(atlas, 0)
    assert expr.base[0] == (LP.const(1), 0)
    for k in (1, 2, 3):
        assert expr.base[k] == (v(f"x{k}"), -k)
    for pos, m in enumerate(atlas.slots(0)):
        assert expr.fiber[pos] == (v(f"y{m}"), m)


def test_act_on_chart_two_dimension_three():
    atlas = CotangentAtlas(3)
    expr = act(atlas, 2)
    x1, x2, x3 = v("x1"), v("x2"), v("x3")
    y1, y2, y3 = v("y1"), v("y2"), v("y3")
    inv = x2**-1
    assert expr.base[0] == (inv, 2)
    assert expr.base[1] == (x1 * inv, 1)
    assert expr.base[2] == (LP.const(1), 0)
    assert expr.base[3] == (x3 * inv, -1)
    assert atlas.slots(2) == (0, 1, 3)
    big = -(x1 * x2 * y1 + x2**2 * y2 + x2 * x3 * y3)
    assert expr.fiber[0] == (big, -2)
    assert expr.fiber[1] == (x2 * y1, -1)
    assert expr.fiber[2] == (x2 * y3, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_act_is_compatible_with_chart_zero_action(n):
    # rescaling chart-0 coordinates by the action and re-expressing must
    # match multiplying each chart-j expression by its recorded t-power
    atlas = CotangentAtlas(n)
    t = v("t")
    rescale = {}
    for k in range(1, n + 1):
        rescale[f"x{k}"] = t**-k * v(f"x{k}")
        rescale[f"y{k}"] = t**k * v(f"y{k}")
    for chart in range(n + 1):
        expr = act(atlas, chart)
        for coeff, weight in list(expr.base) + list(expr.fiber):
            assert coeff.substitute(rescale) == t**weight * coeff


def test_act_at_t_one_is_chart_embedding():
    atlas = CotangentAtlas(2)
    for chart in range(3):
        expr = act(atlas, chart)
        base_coeffs = tuple(c for c, _ in expr.base)
        assert base_coeffs == atlas.embedding_base(chart)
        fiber_coeffs = tuple(c for c, _ in expr.fiber)
        assert fiber_coeffs == atlas.embedding_fiber(chart)


def test_stable_manifold_forced_sets_dimension_three():
    atlas = CotangentAtlas(3)
    expected = {
        0: {"x1", "x2", "x3"},
        1: {"x2", "x3", "y1"},
        2: {"x3", "y1", "y2"},
        3: {"y1", "y2", "y3"},
    }
    for j, forced in expected.items():
        comp = stable_manifold(atlas, j)
        assert comp.forced == frozenset(forced)


def test_stable_manifold_classifications_dimension_three():
    comps = skeleton(3)
    assert [c.shape_json()["kind"] for c in comps] == [
        "affine_fiber", "twisted_bundle", "twisted_bundle", "zero_section"
    ]
    assert comps[0].shape_json() == {"kind": "affine_fiber", "dim": 3}
    assert comps[1].shape_json() == {
        "kind": "twisted_bundle", "base_dim": 1, "rank": 2, "twists": [-1, -1]
    }
    assert comps[2].shape_json() == {
        "kind": "twisted_bundle", "base_dim": 2, "rank": 1, "twists": [-1]
    }
    assert comps[3].shape_json() == {"kind": "zero_section", "dim": 3}
    assert [c.description for c in comps] == [
        "affine fiber of dimension 3",
        "rank-2 bundle over a dimension-1 base, fiber twists (-1, -1)",
        "rank-1 bundle over a dimension-2 base, fiber twists (-1)",
        "zero section of dimension 3",
    ]


def test_component_free_variables_dimension_three():
    comps = skeleton(3)
    assert comps[1].free_base == ("x1",)
    assert comps[1].free_fiber == ("y2", "y3")
    assert comps[2].free_base == ("x1", "x2")
    assert comps[2].free_fiber == ("y3",)


def test_skeleton_dimension_one():
    comps = skeleton(1)
    assert [c.shape_json() for c in comps] == [
        {"kind": "affine_fiber", "dim": 1}, {"kind": "zero_section", "dim": 1}
    ]


def test_skeleton_matches_closed_form_dimension_five():
    for j, comp in enumerate(skeleton(5)):
        assert (comp.description, comp.shape_json()) == closed_form(5, j)


def test_twisted_bundle_example_dimension_four():
    comps = skeleton(4)
    assert comps[1].shape_json() == {
        "kind": "twisted_bundle", "base_dim": 1, "rank": 3, "twists": [-1, -1, -1]
    }


def test_twisted_bundle_example_dimension_two():
    comps = skeleton(2)
    assert comps[1].shape_json() == {
        "kind": "twisted_bundle", "base_dim": 1, "rank": 1, "twists": [-1]
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_components_are_middle_dimensional_and_disjoint(n):
    comps = skeleton(n)
    assert len(comps) == n + 1
    seen = set()
    for comp in comps:
        assert len(comp.free_base) + len(comp.free_fiber) == n
        assert comp.forced not in seen
        seen.add(comp.forced)


def test_unrecognized_form_for_decreasing_weights():
    # weights -1, -2, -3 would scale every fiber coordinate of chart 0 by a
    # power <= 0 and force all of them, the zero section's set, at the
    # affine fiber's fixed point; that set is off the pattern
    atlas = CotangentAtlas(3)
    with pytest.raises(VerificationFailed, match=re.escape(
            "forced set ['y1', 'y2', 'y3'] does not match a recognized component shape")):
        classify_component(atlas, 0, frozenset({"y1", "y2", "y3"}))
    # nor is a forced set of the right size with one variable swapped
    with pytest.raises(VerificationFailed, match=re.escape(
            "forced set ['x2', 'x3', 'y2'] does not match a recognized component shape")):
        classify_component(atlas, 1, frozenset({"x2", "x3", "y2"}))


def test_unrecognized_form_for_a_surviving_block_off_the_diagonal():
    # component 1 of P^3 keeps fiber slots 2 and 3; a transition that mixes
    # them is rejected although the forced set is the expected one
    atlas = CotangentAtlas(3)
    t = atlas.transition(0, 1)
    x1, zero = v("x1"), LP.zero()
    atlas._transitions[(0, 1)] = (t[0], (zero, x1, x1), t[2])
    with pytest.raises(VerificationFailed, match="surviving fiber block is not diagonal"):
        classify_component(atlas, 1, frozenset({"x2", "x3", "y1"}))


@pytest.mark.parametrize(
    "constraint,statement",
    [
        (LP.const(2), "constraint reduced to a nonzero constant"),
        (v("x1") * v("x2"), "monomial constraint x1*x2 forces a reducible locus"),
        (v("x1") + v("x2"), "constraint reduction stalled with 1 equations left"),
    ],
    ids=["constant", "reducible", "stalled"],
)
def test_a_constraint_off_the_pattern_fails_the_check(constraint, statement):
    # the weights are fixed, so no input reaches these: the program is at fault
    with pytest.raises(VerificationFailed, match=re.escape(statement)):
        _reduce_constraints([constraint], set())


def test_a_transition_off_the_gluing_monomial_fails_the_check():
    # slot 2 of component 1 of P^3 must glue by x1 alone, not by 2 * x1
    atlas = CotangentAtlas(3)
    t = atlas.transition(0, 1)
    x1, zero = v("x1"), LP.zero()
    atlas._transitions[(0, 1)] = (t[0], (zero, 2 * x1, zero), t[2])
    with pytest.raises(VerificationFailed,
                       match="fiber coordinate 2 does not glue by the degree-one monomial"):
        classify_component(atlas, 1, frozenset({"x2", "x3", "y1"}))


def test_a_component_off_the_middle_dimension_fails_the_check():
    with pytest.raises(VerificationFailed, match="component is not middle-dimensional"):
        SkeletonComponent(1, 3, frozenset({"x1", "x2", "x3", "y1"}), (), ("y2", "y3"))
