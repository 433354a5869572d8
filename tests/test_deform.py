"""Extension-group bases, class inclusion, and splitting-type families."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelcollar.bundles import zu_terms
from skelcollar.deform import (
    ClassNotGeneric,
    DeformationFamily,
    deformation_family,
    ext1_basis,
    ext_class,
    family_splitting_profile,
    include_class,
    index_step_family,
)
from skelcollar.exact import LaurentPoly as LP

from oracles import dense_echelon


def mono(a, b=0, coeff=1):
    return LP.monomial({"z": a, "u": b}, coeff)


def gap_count(n, j):
    # at fiber level b the U side covers z-exponents >= 0 and the V side,
    # after the z^(-2j) twist of images of xi^alpha v^b, covers <= n*b - 2j;
    # counting the integers strictly between gives the level dimension
    total = 0
    b = 0
    while n * b <= 2 * j - 2:
        total += 2 * j - n * b - 1
        b += 1
    return total


def eliminated_window(n, j, window):
    # reference route: at each fiber level, echelon the coboundary
    # generators (U side a >= 0, twisted V side a <= n*b - 2j) inside the
    # window and keep the non-pivot monomials, b ascending then a ascending;
    # the generator rows are integral unit vectors, so they go to the
    # dense integer elimination of the test oracle directly
    z_lo = -2 * j - n * window
    z_hi = 2 * j + n * window
    width = z_hi - z_lo + 1
    out = []
    for b in range(window + 1):
        generators = set(range(0, z_hi + 1))
        generators.update(range(z_lo, min(-2 * j + n * b, z_hi) + 1))
        rows = []
        for a in sorted(generators):
            row = [0] * width
            row[a - z_lo] = 1
            rows.append(row)
        _, pivots = dense_echelon(rows)
        covered = set(pivots)
        out.extend(
            mono(a, b) for a in range(z_lo, z_hi + 1) if a - z_lo not in covered
        )
    return tuple(out)


def last_level(n, j):
    # fiber levels above (2j - 2) // n carry no basis monomial, so the
    # reference route must agree with the closed form at any window above it
    return max(0, (2 * j - 2) // n)


# ---------------------------------------------------------------------------
# basis


def test_closed_form_matches_elimination_grid():
    for n in range(1, 7):
        for j in range(0, 7):
            for window in range(last_level(n, j) + 1, last_level(n, j) + 4):
                assert ext1_basis(n, j) == eliminated_window(n, j, window), (n, j, window)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    j=st.integers(min_value=0, max_value=9),
    extra=st.integers(min_value=1, max_value=8),
)
def test_closed_form_matches_elimination_property(n, j, extra):
    assert ext1_basis(n, j) == eliminated_window(n, j, last_level(n, j) + extra)


def test_dimension_matches_monomial_gap_count():
    for n in range(1, 5):
        for j in range(0, 4):
            basis = ext1_basis(n, j)
            assert len(basis) == gap_count(n, j)
            for m in basis:
                a = m.max_exponent("z")
                b = m.max_exponent("u")
                assert n * b - 2 * j < a <= -1
                assert b >= 0


def test_known_bases_frozen():
    assert ext1_basis(1, 1) == (mono(-1),)
    assert ext1_basis(2, 1) == (mono(-1),)
    assert ext1_basis(2, 2) == (mono(-3), mono(-2), mono(-1), mono(-1, 1))
    assert ext1_basis(3, 2) == (mono(-3), mono(-2), mono(-1))
    assert ext1_basis(1, 2) == (
        mono(-3),
        mono(-2),
        mono(-1),
        mono(-2, 1),
        mono(-1, 1),
        mono(-1, 2),
    )


def test_zero_index_group_vanishes():
    for n in range(1, 5):
        assert ext1_basis(n, 0) == ()


def test_basis_input_validation():
    with pytest.raises(ValueError):
        ext1_basis(0, 1)
    with pytest.raises(ValueError):
        ext1_basis(2, -1)


# ---------------------------------------------------------------------------
# classes and reduction


def test_reduction_drops_both_coboundary_sides():
    # z^3 extends over U, z^-4 is the twisted image of a V-side monomial
    p = mono(3) + mono(-4) + mono(-1, coeff=Fraction(5, 2)) + mono(-1, 1, coeff=7)
    cls = ext_class(2, 2, p)
    assert cls.representative == mono(-1, coeff=Fraction(5, 2)) + mono(-1, 1, coeff=7)
    assert ext1_basis(2, 2)[2:] == (mono(-1), mono(-1, 1))


def test_zero_class():
    cls = ext_class(3, 1, LP.zero())
    assert cls.is_zero
    assert cls.representative == LP.zero()


def basis_terms(n, j, p):
    # reference route: the terms of p whose monomial ext1_basis lists
    basis = set(ext1_basis(n, j))
    return sum((mono(a, b, c) for a, b, c in zu_terms(p) if mono(a, b) in basis), LP.zero())


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    j=st.integers(min_value=0, max_value=8),
    terms=st.dictionaries(
        st.tuples(st.integers(min_value=-20, max_value=6), st.integers(min_value=0, max_value=5)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
        max_size=8,
    ),
)
def test_reduction_keeps_exactly_the_basis_terms(n, j, terms):
    p = sum((mono(a, b, c) for (a, b), c in terms.items()), LP.zero())
    cls = ext_class(n, j, p)
    assert cls.representative == basis_terms(n, j, p)
    assert cls.is_zero == (not any(mono(a, b) in ext1_basis(n, j) for a, b in terms))


def test_negative_index_monomial_is_its_own_nonzero_class():
    # z^-j is the corner of every index-step family
    for n in range(1, 7):
        for j in range(1, 9):
            cls = ext_class(n, j, mono(-j))
            assert not cls.is_zero, (n, j)
            assert cls.representative == mono(-j) == basis_terms(n, j, mono(-j)), (n, j)
            assert index_step_family(n, j, 1).entry == cls.representative, (n, j)


def test_class_input_validation():
    with pytest.raises(ValueError):
        ext_class(2, 1, LP.monomial({"z": -1, "u": -1}))
    with pytest.raises(ValueError):
        ext_class(2, 1, LP.var("w"))


def test_inclusion_keeps_representative():
    cls = ext_class(1, 1, mono(-1, coeff=3))
    wider = include_class(cls, 1)
    assert wider.j == 2
    assert wider.representative == cls.representative == mono(-1, coeff=3)
    assert ext1_basis(1, 2)[2] == mono(-1)


def test_inclusion_is_injective_on_basis():
    for n in range(1, 4):
        for j in range(1, 3):
            for s in (1, 2):
                wider = ext1_basis(n, j + s)
                for m in ext1_basis(n, j):
                    image = include_class(ext_class(n, j, m), s)
                    assert not image.is_zero
                    assert image.representative == m
                    assert m in wider


def test_inclusion_composes():
    cls = ext_class(2, 2, mono(-2) + mono(-1, 1, coeff=Fraction(1, 3)))
    once_twice = include_class(include_class(cls, 1), 1)
    straight = include_class(cls, 2)
    assert once_twice == straight
    assert straight.representative == cls.representative


def test_inclusion_validation():
    cls = ext_class(1, 1, mono(-1))
    with pytest.raises(ValueError):
        include_class(cls, 0)


# ---------------------------------------------------------------------------
# families


def test_family_endpoints_basic():
    fam = deformation_family(ext_class(1, 1, mono(-1)), 1)
    assert fam.splitting_at(0) == (2, -2)
    assert fam.splitting_at(1) == (1, -1)
    assert fam.top_exponent == 2


def test_family_profile_constant_off_zero():
    fam = deformation_family(ext_class(1, 1, mono(-1)), 1)
    taus = (1, 2, Fraction(1, 3))
    assert family_splitting_profile(fam, taus) == (1, 1, 1)
    assert family_splitting_profile(fam, (0,)) == (2,)
    assert family_splitting_profile(fam, (0, 5, Fraction(-7, 2))) == (2, 1, 1)


def test_family_exact_at_tiny_parameter():
    fam = deformation_family(ext_class(1, 1, mono(-1)), 1)
    assert fam.splitting_at(Fraction(1, 10**9)) == (1, -1)


def test_zero_class_family_stays_split():
    fam = deformation_family(ext_class(2, 1, LP.zero()), 1)
    assert family_splitting_profile(fam, (0, 1, 7)) == (2, 2, 2)


def test_shallow_class_is_rejected():
    # z^-1 deforms to splitting 1, not the declared 2
    with pytest.raises(ClassNotGeneric, match=re.escape(
        "class for (n=2, j=2) lands on splitting type 1 at tau = 1, not 2: "
        "its u-free term z^-1 sets the type to 1"
    )):
        deformation_family(ext_class(2, 2, mono(-1)), 1)


def test_deep_class_is_rejected():
    # z^-3 pins splitting 3 even inside the wider matrix
    with pytest.raises(ClassNotGeneric, match=re.escape(
        "class for (n=1, j=2) lands on splitting type 3 at tau = 1, not 2: "
        "its u-free term z^-3 sets the type to 3"
    )):
        deformation_family(ext_class(1, 2, mono(-3)), 1)
    # z^-5 lies below z^-(j+s), so the family keeps its top exponent 4
    with pytest.raises(ClassNotGeneric, match=re.escape(
        "class for (n=1, j=3) lands on splitting type 4 at tau = 1, not 3: "
        "its u-free terms z^a all have -a > j + s, so it stays at j + s = 4"
    )):
        deformation_family(ext_class(1, 3, mono(-5)), 1)


def test_fiber_class_is_rejected():
    # a representative divisible by u dies along the zero section
    with pytest.raises(ClassNotGeneric, match=re.escape(
        "class for (n=2, j=2) lands on splitting type 3 at tau = 1, not 2: "
        "it has no u-free term, so it stays at j + s = 3"
    )):
        deformation_family(ext_class(2, 2, mono(-1, 1)), 1)


def test_family_validation():
    cls = ext_class(1, 1, mono(-1))
    with pytest.raises(ValueError):
        deformation_family(cls, 0)


def test_index_step_family_positive_index():
    fam = index_step_family(2, 1, 1)
    assert fam.s == 1
    assert fam.entry == mono(-1)
    assert fam.endpoints == (2, 1)
    assert family_splitting_profile(fam, (0, 1)) == (2, 1)


def test_index_step_family_at_zero():
    # the extension group at j = 0 is empty; the corner z^0 is the constant
    # 1, checked by the same endpoint counts as every other family
    for s in (1, 2):
        fam = index_step_family(2, 0, s)
        assert fam.entry == LP.const(1)
        assert fam.endpoints == (s, 0)
        assert family_splitting_profile(fam, (0, 1)) == (s, 0)


def test_index_step_validation():
    with pytest.raises(ValueError):
        index_step_family(2, 1, 0)
    with pytest.raises(ValueError):
        index_step_family(2, -1, 1)


def test_induction_chain_over_basis_elements():
    # a single-monomial class z^a u^b placed in the corner of the (j+s)-matrix
    # restricts on the zero section to nothing when b > 0 and to z^a when
    # b = 0, whose splitting is min(-a, j+s); the family accepts the class
    # exactly when that value is j
    for n in range(1, 4):
        for j in (1, 2):
            for s in (1, 2):
                generic_seen = 0
                for m in ext1_basis(n, j):
                    a = m.max_exponent("z")
                    b = m.max_exponent("u")
                    predicted = j + s if b > 0 else min(-a, j + s)
                    cls = ext_class(n, j, m)
                    if predicted == j:
                        fam = deformation_family(cls, s)
                        assert family_splitting_profile(fam, (0, 1)) == (j + s, j)
                        generic_seen += 1
                    else:
                        with pytest.raises(ClassNotGeneric):
                            deformation_family(cls, s)
                assert generic_seen >= 1


def test_builders_record_checked_endpoints():
    # the builders keep the endpoint splittings they checked; the record
    # must agree with a fresh computation of the same profile
    for n in range(2, 8):
        for j in range(n - 1):
            fam = index_step_family(n, j, 1)
            assert fam.endpoints == (j + 1, j)
            assert fam.endpoints == family_splitting_profile(fam, (0, 1))
    fam = deformation_family(ext_class(2, 1, LP.zero()), 1)
    assert fam.endpoints == (2, 2) == family_splitting_profile(fam, (0, 1))


def test_family_record_shape():
    fam = index_step_family(3, 1, 1)
    assert isinstance(fam, DeformationFamily)
    assert DeformationFamily._fields == ("n", "j", "s", "entry", "endpoints")
    assert (fam.n, fam.j, fam.s, fam.entry, fam.endpoints) == (3, 1, 1, mono(-1), (2, 1))
    assert fam.top_exponent == 2
