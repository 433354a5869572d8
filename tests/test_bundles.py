import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from skelcollar.bundles import (
    BundleTransition,
    collar_iso_certificate,
    compare_line_bundles,
    h0_twist,
    moduli_dimension,
    phi_transform,
    picard_group,
    splitting_type,
)
from skelcollar import bundles
from skelcollar.exact import (
    LaurentPoly,
    VerificationFailed,
    echelon,
    null_space,
    poly_mat_det,
    poly_mat_identity,
    poly_mat_mul,
)

LP = LaurentPoly


def zp(e):
    return LP.monomial({"z": e})


def mono(**exps):
    return LP.monomial(exps)


# -- charts ------------------------------------------------------------------


def test_chart_gluing_round_trip():
    chart = oracles.SurfaceChartPair(3)
    p = mono(z=2, u=-1) + 5 * mono(z=-4, u=3) - mono(u=1)
    assert chart.to_u_side(chart.to_v_side(p)) == p
    q = mono(xi=1, v=2) - 7 * mono(xi=-3, v=-1)
    assert chart.to_v_side(chart.to_u_side(q)) == q
    # the gluing itself: v becomes z^n u, xi becomes 1/z
    assert chart.to_u_side(LP.var("v")) == mono(z=3, u=1)
    assert chart.to_u_side(LP.var("xi")) == zp(-1)


def line_frames_verify(n, u_entry, v_entry):
    """verify on the rank-1 frames (v_entry, u_entry) from m1 = 1 to
    m2 = v_entry / u_entry, where the product always holds; the dict oracle
    must agree."""
    m1 = BundleTransition.line_class(n, 0)
    m2 = BundleTransition.from_rows(n, [[v_entry * u_entry**-1]])
    cert = bundles.CollarIsoCertificate(n, ((v_entry,),), ((u_entry,),))
    verdict = cert.verify(m1, m2)
    assert verdict == oracle_holds(cert, m1, m2)
    return verdict


def test_chart_units_on_the_collar():
    # u and v are units on the collar: a U determinant is c u^k, a V one
    # c v^k, which is c z^(2k) u^k on the overlap for n = 2
    assert line_frames_verify(2, mono(u=3), LP.const(1))
    assert line_frames_verify(2, LP.const(5), LP.const(1))
    assert not line_frames_verify(2, LP.var("z"), mono(z=2, u=1))
    assert line_frames_verify(2, LP.const(1), mono(z=2, u=1))
    assert line_frames_verify(2, LP.const(1), mono(z=-4, u=-2))
    assert not line_frames_verify(2, LP.const(1), mono(z=1, u=1))
    # z + 1 is regular on U but no unit; when the product holds, the V
    # determinant then fails too, so only the oracle, which takes any
    # transitions, sees the U rule alone
    one, z_plus_1 = ((LP.const(1),),), ((LP.var("z") + 1,),)
    frames = (z_plus_1, one, z_plus_1, one)
    assert not oracles.certificate_holds(2, *(oracles.zu_matrix(m) for m in frames))
    assert oracles.certificate_holds(2, *(oracles.zu_matrix(m) for m in (one,) * 4))


def test_chart_rejects_foreign_variables():
    chart = oracles.SurfaceChartPair(2)
    with pytest.raises(ValueError):
        chart.to_u_side(LP.var("z"))
    with pytest.raises(ValueError):
        chart.to_v_side(LP.var("v"))


# -- line bundle normal forms --------------------------------------------------


def reduction_certificate(n, j):
    """The certificate identifying the degree-j class with its residue, as
    collar iso and the Picard table find it."""
    m1 = BundleTransition.line_class(n, j)
    m2 = BundleTransition.line_class(n, j % n)
    cert = collar_iso_certificate(m1, m2)
    assert cert is not None and cert.verify(m1, m2)
    return cert


def test_normal_form_shift_by_one_period():
    # oracle: expand v * z^-5 * u^-1 with v = z^3 u by raw arithmetic
    v_on_overlap = mono(z=3, u=1)
    product = v_on_overlap * zp(-5) * mono(u=-1)
    assert product == zp(-2)

    cert = reduction_certificate(3, 5)
    assert cert.v_frame == ((v_on_overlap,),)
    assert oracles.SurfaceChartPair(3).to_v_side(cert.v_frame[0][0]) == LP.var("v")
    assert cert.u_frame == ((LP.var("u"),),)


def test_normal_form_trivial_exponent():
    for n in (1, 2, 5):
        cert = reduction_certificate(n, 0)
        assert cert.v_frame == ((LP.const(1),),)
        assert cert.u_frame == ((LP.const(1),),)


def test_normal_form_negative_exponent():
    # oracle: v^-1 * z^3 * u = (z^4 u)^-1 * z^3 * u = z^-1
    v_inverse = mono(z=-4, u=-1)
    assert v_inverse * zp(3) * mono(u=1) == zp(-1)

    # z^-1 * u^-1 = v^-1 * z^3: the frames are (v^-1, u^-1)
    cert = reduction_certificate(4, -3)
    assert cert.v_frame == ((v_inverse,),)
    assert cert.u_frame == ((mono(u=-1),),)


def test_normal_form_sweep():
    # the reduction of z^-j to z^-(j mod n) is (v^s, u^s), s = (j - j mod n)/n,
    # and the dict-arithmetic oracle accepts it
    for n in range(1, 7):
        chart = oracles.SurfaceChartPair(n)
        for j in range(-3 * n, 3 * n + 1):
            s = (j - j % n) // n
            cert = reduction_certificate(n, j)
            assert chart.to_v_side(cert.v_frame[0][0]) == mono(v=s)
            assert cert.u_frame == ((mono(u=s),),)
            assert oracles.certificate_holds(
                n, *(oracles.zu_matrix(m) for m in (
                    ((zp(-j),),), ((zp(-(j % n)),),), cert.u_frame, cert.v_frame
                ))
            )


def test_collar_line_bundle_type():
    # the degree-5 class on the 3-collar is the transition z^-5, its residue
    # the one class a certificate reaches, and a tensor product the product
    # of transitions
    line = BundleTransition.line_class(3, 5)
    assert line.entries == ((zp(-5),),)
    reached = [r for r in range(3)
               if collar_iso_certificate(line, BundleTransition.line_class(3, r)) is not None]
    assert reached == [2]
    product = BundleTransition.from_rows(3, [[line.entries[0][0] * zp(-1)]])
    assert product == BundleTransition.line_class(3, 6)
    assert collar_iso_certificate(product, BundleTransition.line_class(3, 0)) is not None
    with pytest.raises(ValueError):
        collar_iso_certificate(line, BundleTransition.line_class(4, 1))


# -- the class group -----------------------------------------------------------


def test_picard_tensor_wraps_around():
    pic = picard_group(3)
    assert pic.tensor_class(2, 2) == 1
    cert = reduction_certificate(3, 4)
    # 2 + 2 = 4 = 1 + 3: one period, so the frames are (v, u)
    assert cert.verify(BundleTransition.line_class(3, 4), BundleTransition.line_class(3, 1))
    assert oracles.SurfaceChartPair(3).to_v_side(cert.v_frame[0][0]) == LP.var("v")
    assert cert.u_frame == ((LP.var("u"),),)


def test_picard_certificates_are_the_collar_iso_frames(monkeypatch):
    # one certificate per degree a + b of the table, 0..2n-2, which the group
    # builds and checks but does not keep
    built = []
    real = bundles.collar_iso_certificate

    def recorded(m1, m2, *args, **kwargs):
        built.append(real(m1, m2, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bundles, "collar_iso_certificate", recorded)
    for n in range(1, 6):
        del built[:]
        assert picard_group(n) == bundles.PicardGroup(n)
        assert built == [reduction_certificate(n, d) for d in range(2 * n - 1)]


@pytest.mark.parametrize("n", range(1, 7))
def test_picard_group_certifies_each_degree_once(monkeypatch, n):
    pairs = []
    real = bundles.collar_iso_certificate

    def counted(m1, m2, *args, **kwargs):
        pairs.append((m1, m2))
        return real(m1, m2, *args, **kwargs)

    monkeypatch.setattr(bundles, "collar_iso_certificate", counted)
    picard_group(n)
    assert pairs == [
        (BundleTransition.line_class(n, d), BundleTransition.line_class(n, d % n))
        for d in range(2 * n - 1)
    ]


def test_picard_inverse_pairs():
    for n in range(1, 13):
        pic = picard_group(n)
        for j in range(n):
            assert pic.tensor_class(j, (n - j) % n) == 0


def test_picard_is_cyclic_of_order_n():
    for n in range(1, 13):
        pic = picard_group(n)
        assert pic.classes == tuple(range(n))
        assert oracles.picard_order(pic, 1 % n) == n if n > 1 else oracles.picard_order(pic, 0) == 1
        # each row of the table is a permutation: cancellation holds
        for a in range(n):
            assert sorted(pic.table[a]) == list(range(n))
        assert all(pic.tensor_class(0, b) == b for b in range(n))
        reduction_certificate(n, n + 1)


def test_picard_associativity_small():
    for n in (2, 3, 4, 6):
        pic = picard_group(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    left = pic.tensor_class(pic.tensor_class(a, b), c)
                    right = pic.tensor_class(a, pic.tensor_class(b, c))
                    assert left == right


# -- section counting ------------------------------------------------------------


def test_h0_line_classes_match_degree_count():
    for d in range(-3, 6):
        trans = BundleTransition.line_class(2, d)
        assert h0_twist(trans, 0) == max(0, d + 1)
    for d in (-2, 0, 3):
        trans = BundleTransition.line_class(3, d)
        for m in range(-3, 4):
            assert h0_twist(trans, m) == max(0, d + m + 1)


def test_h0_split_formula_for_diagonals():
    for j in range(4):
        trans = oracles.diagonal(2, j, -j)
        for m in range(-4, 5):
            expected = max(0, m + j + 1) + max(0, m - j + 1)
            assert h0_twist(trans, m) == expected


def test_h0_worked_values():
    trans = oracles.diagonal(2, 1, -1)
    assert h0_twist(trans, -1) == 1
    assert h0_twist(trans, 0) == 2


def test_h0_profile_of_mixing_matrix():
    # hand enumeration for [[z^2, z], [0, z^-2]]: writing the V-side pair
    # through the gluing forces the second component's degree down and ties
    # the first to it; the surviving freedoms are 2, 1, 0, 4 at these twists
    trans = BundleTransition.from_rows(2, [[zp(2), zp(1)], [LP.zero(), zp(-2)]])
    assert h0_twist(trans, 0) == 2
    assert h0_twist(trans, -1) == 1
    assert h0_twist(trans, -2) == 0
    assert h0_twist(trans, 1) == 4


def test_h0_raises_when_the_doubled_window_counts_more(monkeypatch):
    # the witness names the twist, both counts and the window
    trans = BundleTransition.line_class(1, 4)
    assert h0_twist(trans, -2) == 3
    window = trans.z_spread() + 2 + 1
    real = bundles._section_count

    def one_more_when_doubled(t, twist, w):
        return real(t, twist, w) + (w == 2 * window + 1)

    monkeypatch.setattr(bundles, "_section_count", one_more_when_doubled)
    with pytest.raises(VerificationFailed) as caught:
        h0_twist(trans, -2)
    assert str(caught.value) == (
        "section count at twist -2 moved from 3 to 4 when the degree window grew past 7"
    )


def test_h0_rejects_negative_fiber_powers():
    trans = BundleTransition(1, ((mono(u=-1),),))
    with pytest.raises(ValueError):
        h0_twist(trans, 0)


@st.composite
def accumulation_sequences(draw):
    """(key, nonzero Fraction) writes over a few keys.  A write may cancel
    its key's running sum exactly, and later writes refill a cancelled key."""
    writes, sums = [], {}
    for _ in range(draw(st.integers(0, 24))):
        key = draw(st.integers(0, 3))
        if sums.get(key) and draw(st.booleans()):
            x = -sums[key]
        else:
            x = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
        writes.append((key, x))
        sums[key] = sums.get(key, 0) + x
    return writes


@given(accumulation_sequences())
@example([(0, Fraction(1)), (0, Fraction(2))])
@example([(1, Fraction(1, 2)), (1, Fraction(-1, 2))])
@example([(1, Fraction(1, 2)), (1, Fraction(-1, 2)), (1, Fraction(3))])
def test_accumulate_matches_a_plain_sum_with_zeros_dropped(writes):
    total = {}
    for key, x in writes:
        bundles._accumulate(total, key, x)
    sums = {}
    for key, x in writes:
        sums[key] = sums.get(key, 0) + x
    assert total == {key: x for key, x in sums.items() if x}


_FIBER_TERM = st.tuples(
    st.integers(-3, 3), st.integers(0, 2), st.fractions(-3, 3, max_denominator=3).filter(bool)
)


@st.composite
def section_transitions(draw):
    """Rank-1 single terms c z^a u^b, and rank-2 canonical
    [[z^j, p], [0, z^-j]] shapes, half of them sheared on the left by
    [[1, 0], [s, 1]] as the golden sheared-n2 is; p and s may carry fiber
    powers u^b, b >= 0."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return BundleTransition.from_rows(n, [[zu_poly([draw(_FIBER_TERM)])]])
    j = draw(st.integers(0, 3))
    top = [zp(j), zu_poly(draw(st.lists(_FIBER_TERM, max_size=3)))]
    bottom = [LP.zero(), zp(-j)]
    if draw(st.booleans()):
        s = zu_poly(draw(st.lists(_FIBER_TERM, min_size=1, max_size=2)))
        bottom = [s * t + b for t, b in zip(top, bottom)]
    return BundleTransition.from_rows(n, [top, bottom])


_SHEARED_N2 = json.loads(
    (Path(__file__).parent / "golden" / "matrices" / "sheared-n2.json").read_text(encoding="utf-8")
)


@settings(max_examples=80, deadline=None)
@given(section_transitions(), st.integers(-4, 4), st.integers(0, 6))
@example(
    BundleTransition.from_rows(
        _SHEARED_N2["n"], [[LP.from_json_dict(p) for p in row] for row in _SHEARED_N2["matrix"]]
    ),
    -2,
    1,
)
def test_section_count_rows_match_the_column_by_column_oracle(trans, twist, window):
    # each count hands the kernel the rows the oracle builds with one
    # monomial per column: _section_count at a drawn window, and h0_twist at
    # its own window and at the doubled one
    seen = []

    def recording_echelon(rows):
        seen.append(rows)
        return echelon(rows)

    with mock.patch.object(bundles, "echelon", recording_echelon):
        bundles._section_count(trans, twist, window)
        try:
            h0_twist(trans, twist)
        except VerificationFailed:
            pass
    first = trans.z_spread() + abs(twist) + 1
    expected = [oracles.product_section_rows(trans, twist, w)
                for w in (window, first, 2 * first + 1)]
    assert [sorted(rows) for rows in seen] == [sorted(rows) for rows in expected]
    for rows, oracle_rows in zip(seen, expected):
        for key in oracle_rows:
            assert rows[key] == oracle_rows[key], key


# -- splitting types ---------------------------------------------------------------


def test_splitting_diagonal():
    for j in range(4):
        trans = oracles.diagonal(2, j, -j)
        assert splitting_type(trans) == (j, -j)


def test_splitting_off_diagonal_vanishing_on_zero_section():
    off = mono(z=1, u=1)
    trans = BundleTransition.canonical(2, 2, off=off)
    assert splitting_type(trans) == (2, -2)


def test_splitting_mixing_entry_lowers_type():
    trans = BundleTransition.canonical(2, 2, off=zp(1))
    assert splitting_type(trans) == (1, -1)


def test_splitting_requires_trivial_determinant():
    # the determinant is a single term by construction, so only its z
    # exponent is left to test: diag(z, z) has determinant z^2
    trans = oracles.diagonal(2, 1, 1)
    needs_one = "^splitting profile needs determinant 1 over the zero section$"
    with pytest.raises(ValueError, match=needs_one):
        splitting_type(trans)
    with pytest.raises(ValueError, match="rank-2"):
        splitting_type(BundleTransition.line_class(2, 1))
    # a rank-1 entry of two terms never reaches a splitting or a certificate
    with pytest.raises(ValueError, match="^transition determinant must be a unit monomial$"):
        BundleTransition(2, ((zp(1) + zp(-1),),))


def test_splitting_invariant_under_frame_changes():
    rng = random.Random(77)

    def unimodular(var, invert):
        # product of two elementary shears with small polynomial entries
        def entry():
            e = rng.randint(0, 1)
            c = rng.randint(-2, 2)
            return LP.const(c) * LP.monomial({var: -e if invert else e})

        one = LP.const(1)
        zero = LP.zero()
        lower = [[one, zero], [entry(), one]]
        upper = [[one, entry()], [zero, one]]
        return poly_mat_mul(lower, upper)

    for j, off in ((1, None), (2, zp(1))):
        base = BundleTransition.canonical(2, j, off=off)
        expected = splitting_type(base)
        left = unimodular("z", invert=True)
        right = unimodular("z", invert=False)
        rows = poly_mat_mul(left, poly_mat_mul([list(r) for r in base.entries], right))
        moved = BundleTransition.from_rows(2, rows)
        assert splitting_type(moved) == expected


@st.composite
def canonical_shapes(draw):
    """canonical(n, k, p) with k <= 8 and p of mixed-sign z exponents,
    some of its terms carrying a fiber factor u^b that vanishes on the
    zero section."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 8))
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-k - 2, k + 2),
                st.integers(0, 2),
                st.fractions(-3, 3, max_denominator=3).filter(bool),
            ),
            max_size=5,
        )
    )
    off = LP.zero()
    for e, b, c in terms:
        off = off + LP.monomial({"z": e, "u": b}, c)
    return BundleTransition.canonical(n, k, off)


def _outcome(route, trans):
    try:
        return route(trans)
    except (ValueError, VerificationFailed) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(canonical_shapes())
def test_twist_walk_matches_the_full_walk(trans):
    # the walk stops at the first empty twist below zero; the oracle counts
    # every twist down to the degree cap
    counts = {}
    expected = _outcome(lambda t: oracles.full_walk_splitting_type(t, counts), trans)
    assert _outcome(splitting_type, trans) == expected
    if isinstance(expected, tuple):
        j = expected[0]
        assert all(counts[m] == 0 for m in counts if m < -j - 1)


@pytest.mark.parametrize(
    "n, k, off, j",
    [
        (2, 0, None, 0),
        (1, 3, LP.const(2), 0),
        (2, 3, zp(-1), 1),
        (3, 5, zp(2) * 3 + mono(z=-1, u=1), 2),
        (4, 4, zp(5), 4),
        (2, 6, None, 6),
    ],
)
def test_splitting_counts_sections_from_twist_minus_j_minus_1_to_j(monkeypatch, n, k, off, j):
    twists = []
    real = bundles.h0_twist

    def counted(trans, twist, *args, **kwargs):
        twists.append(twist)
        return real(trans, twist, *args, **kwargs)

    monkeypatch.setattr(bundles, "h0_twist", counted)
    assert splitting_type(BundleTransition.canonical(n, k, off)) == (j, -j)
    assert len(twists) == 2 * j + 2
    assert sorted(twists) == list(range(-j - 1, j + 1))


# -- the splitting-raising transformation ----------------------------------------


def phi_image(trans):
    """phi of a canonical transition; its certificate must pass verify and
    the dict oracle."""
    image, cert = phi_transform(trans)
    assert cert.verify(trans, image)
    assert oracles.certificate_holds(trans.n, *(oracles.zu_matrix(m) for m in (
        trans.entries, image.entries, cert.u_frame, cert.v_frame
    )))
    return image, cert


def test_phi_stage_bookkeeping():
    # for n = 2, j = 1 the stages ran from the summands (1, -1) to (-3, 3)
    # with no net twist and residue 1; the frames V = diag(v, 1/v),
    # U = diag(u, 1/u) with v = z^2 u now certify that end point, and the
    # corner p becomes z^n u^2 p
    image, cert = phi_image(BundleTransition.canonical(2, 1, mono(z=-1, u=1)))
    v, zero = mono(z=2, u=1), LP.zero()
    assert cert.v_frame == ((v, zero), (zero, v**-1))
    assert cert.u_frame == ((LP.var("u"), zero), (zero, mono(u=-1)))
    assert image == BundleTransition.canonical(2, 3, mono(z=1, u=3))
    assert splitting_type(image) == (3, -3)


def test_phi_trivial_class():
    for n in (1, 2, 4):
        image, _ = phi_image(BundleTransition.canonical(n, 0, LP.const(5)))
        assert splitting_type(image) == (n, -n)
        assert image.entries[0][0] == zp(n)


def test_phi_iterates_by_full_periods():
    first, _ = phi_image(BundleTransition.canonical(2, 1, zp(-1) + 3))
    second, _ = phi_image(first)
    assert splitting_type(second) == (1 + 2 * 2, -1 - 2 * 2)
    assert second.entries[0][1] == mono(z=3, u=4) + 3 * mono(z=4, u=4)


def random_corner(rng):
    """Up to four terms z^a u^b with -3 <= a <= 3, 0 <= b <= 2 and small
    rational coefficients, possibly none."""
    terms = (
        LP.monomial({"z": rng.randint(-3, 3), "u": rng.randint(0, 2)},
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 4))
    )
    return sum(terms, LP.zero())


def test_phi_sweep():
    # the image restricts to diag(z^(j+n), z^-(j+n)) on the zero section and
    # splits as (j + n, -j - n): the splitting rises by n, the residue stays
    rng = random.Random(11)
    for n in range(1, 5):
        for j in range(5):
            image, _ = phi_image(BundleTransition.canonical(n, j, random_corner(rng)))
            restricted = image.restrict_to_zero_section()
            assert restricted == oracles.diagonal(n, j + n, -j - n), (n, j)
            assert splitting_type(image) == (j + n, -j - n), (n, j)
            assert (j + n) % n == j % n


def test_phi_refuses_a_transition_that_is_not_canonical():
    half = Fraction(1, 2)
    for trans in (
        BundleTransition.line_class(2, 1),
        oracles.diagonal(2, 1, 1),
        oracles.diagonal(2, -1, 1),
        BundleTransition.from_rows(2, [[zp(1), LP.zero()], [LP.const(1), zp(-1)]]),
        BundleTransition.from_rows(2, [[2 * zp(1), LP.zero()], [LP.zero(), zp(-1) * half]]),
    ):
        with pytest.raises(ValueError):
            phi_transform(trans)


# -- certificates ------------------------------------------------------------------


def test_certificate_identity_case():
    trans = BundleTransition.canonical(2, 1)
    cert = collar_iso_certificate(trans, trans)
    assert cert is not None
    assert cert.v_frame == ((LP.const(1), LP.zero()), (LP.zero(), LP.const(1)))
    assert cert.verify(trans, trans)


def _equal_inputs():
    for n in range(1, 7):
        for j in range(-6, 7):
            yield BundleTransition.line_class(n, j)
    corners = [None] + [LP.monomial({"z": a, "u": b}, Fraction(-3, 2))
                        for a in range(-3, 4) for b in range(3)]
    for n in range(1, 4):
        for j in range(4):
            for off in corners:
                yield BundleTransition.canonical(n, j, off=off)


def test_equal_inputs_get_identity_frames():
    # no shortcut for equal inputs: the rank-1 closed form and the normal
    # form both reach the identity
    for trans in _equal_inputs():
        cert = collar_iso_certificate(trans, trans)
        assert cert is not None, trans
        identity = poly_mat_identity(trans.rank)
        assert (cert.v_frame, cert.u_frame) == (identity, identity), trans
        assert cert.verify(trans, trans)


def test_certificate_for_one_period_shift():
    m1 = BundleTransition.line_class(3, 5)
    m2 = BundleTransition.line_class(3, 2)
    cert = collar_iso_certificate(m1, m2, bound=1)
    assert cert is not None
    assert oracles.SurfaceChartPair(3).to_v_side(cert.v_frame[0][0]) == LP.var("v")
    assert cert.u_frame == ((LP.var("u"),),)
    # re-verify the identity by raw multiplication
    lhs = m2.entries[0][0] * cert.u_frame[0][0]
    rhs = cert.v_frame[0][0] * m1.entries[0][0]
    assert lhs == rhs
    assert cert.verify(m1, m2)


def test_certificate_search_agrees_with_closed_form():
    m1 = BundleTransition.line_class(2, 0)
    m2 = BundleTransition.line_class(2, 2)
    fast = collar_iso_certificate(m1, m2, bound=1)
    slow = collar_iso_certificate(m1, m2, bound=1, exhaustive=True)
    assert fast is not None and slow is not None
    assert fast.verify(m1, m2)
    assert slow.verify(m1, m2)


def test_certificate_rank_two_diagonal_shift():
    m1 = oracles.diagonal(2, 1, -1)
    m2 = oracles.diagonal(2, 3, -3)
    cert = collar_iso_certificate(m1, m2, bound=1)
    assert cert is not None
    assert cert.verify(m1, m2)
    # the dict oracle re-checks the unit determinants on its own
    assert oracle_holds(cert, m1, m2)


def test_certificate_rank_two_crossed_summands():
    # over the n=3 collar the summand classes of diag(z, z^-1) are {2, 1}
    # and those of diag(z^2, z^-2) are {1, 2}: a frame swap matches them
    m1 = BundleTransition.canonical(3, 1)
    m2 = BundleTransition.canonical(3, 2)
    cert = collar_iso_certificate(m1, m2, bound=1)
    assert cert is not None
    assert cert.verify(m1, m2)


def test_certificate_rank_two_disjoint_summand_classes():
    # n=5: classes {1, 4} against {2, 3} share nothing, crossed or not
    m1 = BundleTransition.canonical(5, 1)
    m2 = BundleTransition.canonical(5, 2)
    assert collar_iso_certificate(m1, m2, bound=1) is None


def test_certificate_respects_bound():
    m1 = BundleTransition.line_class(2, 0)
    m2 = BundleTransition.line_class(2, 4)
    assert collar_iso_certificate(m1, m2, bound=1) is None
    assert collar_iso_certificate(m1, m2, bound=2) is not None


def oracle_holds(cert, m1, m2):
    frames = (m1.entries, m2.entries, cert.u_frame, cert.v_frame)
    return oracles.certificate_holds(cert.n, *(oracles.zu_matrix(m) for m in frames))


def test_verify_rejects_a_u_frame_that_is_not_regular():
    # z^-1 is no function on the U chart: B = diag(z, z^-1) has determinant
    # 1 and m2 * B = A * m1 holds, yet no certificate exists
    m1 = oracles.diagonal(2, 1, -1)
    m2 = oracles.diagonal(2, 0, 0)
    identity = m2.entries
    forged = bundles.CollarIsoCertificate(2, identity, m1.entries)
    assert poly_mat_mul(m2.entries, forged.u_frame) == poly_mat_mul(forged.v_frame, m1.entries)
    assert not forged.verify(m1, m2)
    assert not oracle_holds(forged, m1, m2)
    assert collar_iso_certificate(m1, m2) is None


def test_verify_rejects_a_v_frame_that_is_not_regular():
    # the V-frame term z^1 u^0 is xi^-1 on the V chart
    m1 = oracles.diagonal(2, 0, 0)
    m2 = oracles.diagonal(2, 1, -1)
    forged = bundles.CollarIsoCertificate(2, m2.entries, m1.entries)
    assert poly_mat_mul(m2.entries, forged.u_frame) == poly_mat_mul(forged.v_frame, m1.entries)
    assert not forged.verify(m1, m2)
    assert not oracle_holds(forged, m1, m2)
    # u = xi^2 v is regular on both charts, so the shear [[1, u], [0, 1]]
    # on both sides passes
    shear = ((LP.const(1), LP.var("u")), (LP.zero(), LP.const(1)))
    fine = bundles.CollarIsoCertificate(2, shear, shear)
    assert fine.verify(m1, m1) and oracle_holds(fine, m1, m1)


def test_verify_rejects_variables_outside_the_overlap():
    # w passes both unit tests and both products, but is no coordinate here
    line = BundleTransition.line_class(2, 0)
    w = ((LP.var("w"),),)
    assert not bundles.CollarIsoCertificate(2, w, w).verify(line, line)


def test_verify_rejects_frames_of_the_wrong_shape():
    # the frames must be square of the transitions' common rank; a wrong
    # shape is a rejected certificate, not a failed matrix product
    identity = poly_mat_identity(1)
    line = BundleTransition.line_class(2, 0)
    plane = oracles.diagonal(2, 1, -1)
    cert = bundles.CollarIsoCertificate(2, identity, identity)
    assert cert.verify(line, line)
    assert not cert.verify(plane, plane)
    assert not cert.verify(line, plane)
    assert not cert.verify(plane, line)
    ragged = ((LP.const(1), LP.zero()), (LP.const(1),))
    assert not bundles.CollarIsoCertificate(2, ragged, poly_mat_identity(2)).verify(plane, plane)


COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 2)])


def terms(low, high, **size):
    """Lists of (base exponent in low..high, fiber exponent, coefficient)."""
    return st.lists(st.tuples(st.integers(low, high), st.integers(-2, 2), COEFFS), **size)


def zu_poly(triples):
    return sum((LP.monomial({"z": a, "u": b}, c) for a, b, c in triples), LP.zero())


def chart_term(n, side, a, b, coeff):
    """The chart term of base exponent a and fiber exponent b in overlap
    coordinates: z^a u^b on U, xi^a v^b = z^(n b - a) u^b on V."""
    return LP.monomial({"z": a if side == "u" else n * b - a, "u": b}, coeff)


@st.composite
def chart_frames(draw, n, side, rank, irregular=False):
    """A frame with unit determinant on one chart of the collar: a product
    of scalings by units, shears and swaps.  With ``irregular`` one more
    shear carries a term with a negative base exponent."""
    one, zero = LP.const(1), LP.zero()
    frame = poly_mat_identity(rank)
    steps = draw(st.lists(st.sampled_from(["scale", "shear", "swap"]), min_size=1, max_size=3))
    if irregular:
        steps.append("bad shear")
    for step in steps:
        if step == "scale" or rank == 1:
            units = [chart_term(n, side, 0, b, c) for _, b, c in draw(terms(0, 0, min_size=rank, max_size=rank))]
            factor = tuple(tuple(units[i] if i == k else zero for k in range(rank)) for i in range(rank))
        elif step == "swap":
            factor = ((zero, one), (one, zero))
        else:
            shear = draw(terms(0, 3, min_size=1, max_size=3))
            if step == "bad shear":
                # the other terms have base exponents >= 0, so none cancels it
                shear += draw(terms(-3, -1, min_size=1, max_size=1))
            x = sum((chart_term(n, side, *t) for t in shear), LP.zero())
            factor = ((one, x), (zero, one)) if draw(st.booleans()) else ((one, zero), (x, one))
        frame = poly_mat_mul(frame, factor)
    return frame


def inverse(frame):
    inv_det = poly_mat_det(frame) ** -1
    if len(frame) == 1:
        return ((inv_det,),)
    (a, b), (c, d) = frame
    return ((d * inv_det, -b * inv_det), (-c * inv_det, a * inv_det))


@pytest.mark.parametrize("case", ["accept", "irregular", "singular", "disagree", "arbitrary"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verify_agrees_with_the_dict_oracle(case, data):
    # accepted: m2 = V * m1 * U^-1 for unit frames; rejected: the same with
    # an irregular frame, both frames times a regular non-unit, a U frame
    # moved off m2, or arbitrary frames
    n = data.draw(st.integers(1, 4))
    rank = 2 if case == "irregular" else data.draw(st.integers(1, 2))
    if rank == 1:
        m1 = BundleTransition.from_rows(n, [[zu_poly(data.draw(terms(-3, 3, min_size=1, max_size=1)))]])
    else:
        e1, e2 = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        p = zu_poly(data.draw(terms(-3, 3, max_size=3)))
        m1 = BundleTransition.from_rows(n, [[zp(e1), p], [LP.zero(), zp(e2)]])
    bad_side = data.draw(st.sampled_from(["u", "v"])) if case == "irregular" else None
    u_frame = data.draw(chart_frames(n, "u", rank, irregular=bad_side == "u"))
    v_frame = data.draw(chart_frames(n, "v", rank, irregular=bad_side == "v"))
    m2 = BundleTransition(n, poly_mat_mul(poly_mat_mul(v_frame, m1.entries), inverse(u_frame)))
    expected = case == "accept"
    if case == "singular":
        # m2 * U * f = V * m1 * f; f = u is no unit on V, z^n u none on U
        f = data.draw(st.sampled_from([mono(u=1), mono(z=n, u=1), mono(u=1) + 1]))
        u_frame, v_frame = (tuple(tuple(p * f for p in row) for row in m) for m in (u_frame, v_frame))
    if case == "disagree":
        # m2 * U * S = V * m1 * S, which is V * m1 only when S is the identity
        shift = data.draw(chart_frames(n, "u", rank))
        u_frame = poly_mat_mul(u_frame, shift)
        expected = shift == poly_mat_identity(rank)
    if case == "arbitrary":
        u_frame, v_frame = (
            tuple(tuple(zu_poly(data.draw(terms(-3, 3, max_size=2))) for _ in range(rank)) for _ in range(rank))
            for _ in "uv"
        )
    cert = bundles.CollarIsoCertificate(n, v_frame, u_frame)
    verdict = cert.verify(m1, m2)
    assert verdict == oracle_holds(cert, m1, m2)
    if case != "arbitrary":
        assert verdict == expected


# the benchmark's 13 certificate requests at seed 1 (rank-2 pairs with the
# default or a tight bound, exhaustive line pairs) and the frames recorded
# for them.  The five rank-2 pairs are canonical shapes of one j, answered
# by the normal form; "search_certificate" pins what the kernel search
# returns for each through exhaustive=True, with null for the two
# isomorphic pairs it finds no certificate for
GOLDEN_CERTIFICATES = json.loads(
    (Path(__file__).parent / "golden" / "certificates.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", GOLDEN_CERTIFICATES)
def test_certificate_search_matches_golden(case):
    def transition(rows):
        return BundleTransition.from_rows(
            case["n"], [[LP.from_json_dict(p) for p in row] for row in rows]
        )

    m1, m2 = transition(case["m1"]), transition(case["m2"])
    cert = collar_iso_certificate(m1, m2, bound=case["bound"], exhaustive=case["exhaustive"])
    found = None
    if cert is not None:
        found = {
            key: [[p.to_json_dict() for p in row] for row in getattr(cert, key)]
            for key in ("u_frame", "v_frame")
        }
        assert cert.verify(m1, m2)
        assert oracle_holds(cert, m1, m2)
    assert found == case["certificate"]


@pytest.mark.parametrize("case", [case for case in GOLDEN_CERTIFICATES if "search_certificate" in case])
def test_kernel_search_keeps_its_golden_answers(case):
    # the normal form answers these pairs; the search behind it, reached
    # through exhaustive=True, returns the recorded frames or null
    m1, m2 = (
        BundleTransition.from_rows(case["n"], [[LP.from_json_dict(p) for p in row] for row in rows])
        for rows in (case["m1"], case["m2"])
    )
    cert = collar_iso_certificate(m1, m2, bound=case["bound"], exhaustive=True)
    found = None if cert is None else {
        key: [[p.to_json_dict() for p in row] for row in getattr(cert, key)]
        for key in ("u_frame", "v_frame")
    }
    assert found == case["search_certificate"]
    assert case["certificate"] is not None


def test_certificate_search_never_builds_a_dense_matrix(monkeypatch):
    # each search hands sparse rows, no zero stored, to the one elimination
    # kernel, and every null-space vector it gets back solves them
    systems = []

    def recording_echelon(rows):
        systems.append([rows, None])
        return echelon(rows)

    def recording_null_space(pivots, cols):
        systems[-1][1] = null_space(pivots, cols)
        return systems[-1][1]

    monkeypatch.setattr(bundles, "echelon", recording_echelon)
    monkeypatch.setattr(bundles, "null_space", recording_null_space)
    m1 = BundleTransition.canonical(2, 1, LP.monomial({"z": -1}))
    m2 = BundleTransition.canonical(2, 1, LP.monomial({"z": -1}, 3))
    assert collar_iso_certificate(m1, m2, exhaustive=True) is not None
    line1, line2 = BundleTransition.line_class(2, 0), BundleTransition.line_class(2, 2)
    assert collar_iso_certificate(line1, line2, bound=1, exhaustive=True) is not None
    assert collar_iso_certificate(line1, line2, bound=0, exhaustive=True) is None
    # the normal form certifies the rank-2 pair, even at bound 4 where the
    # search finds nothing, and hands no system to the kernel
    assert collar_iso_certificate(m1, m2, bound=4).verify(m1, m2)

    assert [basis is not None for _, basis in systems] == [True] * 3
    for rows, basis in systems:
        assert all(x for row in rows.values() for x in row.values())
        for vec in basis:
            for row in rows.values():
                assert sum(x * vec.get(c, 0) for c, x in row.items()) == 0


_TERM = st.tuples(
    st.integers(-4, 4), st.integers(-2, 2), st.fractions(-3, 3, max_denominator=3).filter(bool)
)


def _poly(terms):
    out = LP.zero()
    for e, b, c in terms:
        out = out + LP.monomial({"z": e, "u": b}, c)
    return out


@st.composite
def search_pairs(draw):
    """Two transitions of equal rank on one collar with a bound: rank 1
    single terms, or rank 2 upper or lower triangular shapes, with mixed-sign
    z exponents and u terms."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        pair = [BundleTransition.from_rows(n, [[_poly([draw(_TERM)])]]) for _ in "12"]
    else:
        pair = []
        for _ in "12":
            k = draw(st.integers(-3, 3))
            off = _poly(draw(st.lists(_TERM, max_size=3)))
            rows = [[zp(k), off], [LP.zero(), zp(-k)]]
            if draw(st.booleans()):
                rows = [[zp(k), LP.zero()], [off, zp(-k)]]
            pair.append(BundleTransition.from_rows(n, rows))
    return pair[0], pair[1], draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(search_pairs())
def test_search_rows_by_exponent_shift_match_the_product_rows(case):
    m1, m2, bound = case
    seen = []

    def recording_echelon(rows):
        seen.append(rows)
        return echelon(rows)

    with mock.patch.object(bundles, "echelon", recording_echelon):
        collar_iso_certificate(m1, m2, bound=bound, exhaustive=True)
    assert seen == [oracles.product_certificate_rows(m1, m2, bound)[0]]


def _candidates(vectors):
    """The search's candidates in its order: each null vector, the sums of
    pairs of the first ``_PAIR_CAP``, then the sum of all; none without a
    null vector."""
    if not vectors:
        return []
    head = vectors[: bundles._PAIR_CAP]
    pairs = [
        bundles._vector_sum((head[a], head[b]))
        for a in range(len(head))
        for b in range(a + 1, len(head))
    ]
    return vectors + pairs + [bundles._vector_sum(vectors)]


def _line_frames(vec, columns):
    """The 1 x 1 frame pair (U, V) of a null vector as {(z, u): Fraction}
    matrices."""
    frames = {"u": [[{}]], "v": [[{}]]}
    for c, x in vec.items():
        side, _, _, basis = columns[c]
        ((key, _),) = oracles.zu_matrix([[basis]])[0][0].items()
        frames[side][0][0][key] = x
    return frames["u"], frames["v"]


@pytest.mark.parametrize(
    "n,p1,p2,bound",
    [
        (2, LP.monomial({"z": -3}), LP.monomial({"z": -1}), None),
        (2, LP.monomial({"z": -2, "u": -1}, -3), LP.monomial({"z": 4, "u": 1}), None),
        (1, LP.monomial({"z": 1, "u": -2}, Fraction(2, 3)), LP.const(1), 3),
        # no certificate: 77 single vectors pass the test, no pair sum does
        (1, LP.monomial({"z": 4, "u": -1}, Fraction(2, 3)), LP.monomial({"z": -3, "u": 2}), None),
        (3, LP.monomial({"z": 4}, 2), LP.var("u"), 2),
    ],
)
def test_rank_one_search_builds_frames_only_for_single_term_vectors(monkeypatch, n, p1, p2, bound):
    # a 1 x 1 frame is a unit only if it is one term, so the search builds
    # frames only from vectors with one V-side and one U-side nonzero, and
    # still returns the first candidate whose frames hold, as it did when
    # it built every candidate
    m1 = BundleTransition.from_rows(n, [[p1]])
    m2 = BundleTransition.from_rows(n, [[p2]])
    spaces, built = [], []
    real_null_space, real_from_frames = bundles.null_space, bundles._certificate_from_frames

    def recording_null_space(pivots, cols):
        spaces.append(real_null_space(pivots, cols))
        return spaces[-1]

    def recording_from_frames(n, v_rows, u_rows, m1, m2):
        built.append((v_rows, u_rows))
        return real_from_frames(n, v_rows, u_rows, m1, m2)

    monkeypatch.setattr(bundles, "null_space", recording_null_space)
    monkeypatch.setattr(bundles, "_certificate_from_frames", recording_from_frames)
    cert = collar_iso_certificate(m1, m2, bound=bound, exhaustive=True)

    if bound is None:
        bound = max(n, m1.z_spread() + m2.z_spread()) + 1
    _, columns = oracles.product_certificate_rows(m1, m2, bound)
    (vectors,) = spaces
    candidates = _candidates(vectors)
    single_term = [
        vec for vec in candidates
        if sorted(columns[c][0] for c in vec) == ["u", "v"]
    ]
    m1_terms, m2_terms = oracles.zu_matrix(m1.entries), oracles.zu_matrix(m2.entries)
    expected = next(
        (vec for vec in candidates
         if oracles.certificate_holds(n, m1_terms, m2_terms, *_line_frames(vec, columns))),
        None,
    )
    assert all(entry.is_monomial() for v_rows, u_rows in built for row in v_rows + u_rows
               for entry in row)
    if expected is None:
        assert cert is None
        assert len(built) == len(single_term) < len(candidates)
    else:
        found = (oracles.zu_matrix(cert.u_frame), oracles.zu_matrix(cert.v_frame))
        assert found == _line_frames(expected, columns)
        assert len(built) == single_term.index(expected) + 1


def _zu_maps(terms):
    """The search's exponent maps {(u, z): x} of one frame as the oracle's
    {(z, u): x} dicts."""
    return [[{(z, u): x for (u, z), x in t.items()} for t in row] for row in terms]


def assert_frames_match_the_sum_oracle(m1, m2, bound, vectors=None):
    """Refuse every candidate, so that the search assembles all of them,
    and compare each with its frames summed term by term as Laurent
    products and sums.  For rank 2 that is the exponent maps of every
    candidate, which the determinant screen reads, and the frames built for
    the candidates whose summed frames have unit determinants; for rank 1,
    the frames of every vector of two nonzeros.  ``vectors(cols)``, if
    given, stands in for the null space."""
    if bound is None:
        bound = max(m1.n, m1.z_spread() + m2.z_spread()) + 1
    spaces, screened, built = [], [], []
    real_screen = bundles._unit_determinants

    def recording_null_space(pivots, cols):
        spaces.append(null_space(pivots, cols) if vectors is None else vectors(cols))
        return spaces[-1]

    def recording_screen(n, terms):
        screened.append(terms)
        return real_screen(n, terms)

    def refusing_from_frames(n, v_rows, u_rows, m1, m2):
        built.append((v_rows, u_rows))
        return None

    with mock.patch.object(bundles, "null_space", recording_null_space), \
            mock.patch.object(bundles, "_unit_determinants", recording_screen), \
            mock.patch.object(bundles, "_certificate_from_frames", refusing_from_frames):
        assert collar_iso_certificate(m1, m2, bound=bound, exhaustive=True) is None
    candidates = _candidates(spaces[0])
    _, columns = oracles.product_certificate_rows(m1, m2, bound)
    frames = [oracles.sum_built_frames(vec, columns, m1.rank) for vec in candidates]
    if m1.rank == 1:
        assert screened == []
        frames = [pair for pair, vec in zip(frames, candidates) if len(vec) == 2]
    else:
        assert len(screened) == len(candidates)
        for terms, (v_rows, u_rows) in zip(screened, frames):
            assert _zu_maps(terms["v"]) == oracles.zu_matrix(v_rows)
            assert _zu_maps(terms["u"]) == oracles.zu_matrix(u_rows)
        frames = [
            (v_rows, u_rows) for v_rows, u_rows in frames
            if oracles.unit_determinants(m1.n, oracles.zu_matrix(u_rows), oracles.zu_matrix(v_rows))
        ]
    assert built == frames


@pytest.mark.parametrize("case", GOLDEN_CERTIFICATES)
def test_golden_search_frames_match_the_sum_built_oracle(case):
    m1, m2 = (
        BundleTransition.from_rows(case["n"], [[LP.from_json_dict(p) for p in row] for row in rows])
        for rows in (case["m1"], case["m2"])
    )
    assert_frames_match_the_sum_oracle(m1, m2, case["bound"])


# rank 1: a line class against one of another degree, and a one-term entry
# with a fiber factor; rank 2: canonical pairs with scaled, shifted or u terms
_FRAME_GRID = [
    (BundleTransition.line_class(n, 0), BundleTransition.line_class(n, n), bound)
    for n in range(1, 5) for bound in (0, 2, 5)
] + [
    (BundleTransition.from_rows(n, [[mono(z=1, u=1)]]), BundleTransition.line_class(n, 2), 4)
    for n in range(1, 5)
] + [
    (BundleTransition.canonical(n, k, mono(z=e)), BundleTransition.canonical(n, k, c * off), bound)
    for n, k, e, c, off, bound in [
        (1, 1, -1, 2, zp(-1), 5),
        (2, 1, -1, 3, zp(-1), 4),
        (2, 0, 0, 1, mono(u=1), 3),
        (3, 1, 1, Fraction(1, 2), zp(1) + mono(z=2, u=1), 2),
        (4, 1, -1, 1, zp(-1), 5),
        (4, 2, 0, -1, zp(1), 1),
    ]
]


@pytest.mark.parametrize("m1,m2,bound", _FRAME_GRID)
def test_grid_search_frames_match_the_sum_built_oracle(m1, m2, bound):
    assert_frames_match_the_sum_oracle(m1, m2, bound)


@settings(max_examples=60, deadline=None)
@given(case=search_pairs(), data=st.data())
def test_frames_of_random_sparse_vectors_match_the_sum_built_oracle(case, data):
    # the vectors need not solve the system: building a frame pair reads
    # only the vector's columns and their frame terms
    m1, m2, bound = case

    def random_vectors(cols):
        # rank-1 frames are built only from vectors of two nonzeros
        sizes = st.just(2) if m1.rank == 1 and data.draw(st.booleans()) else st.integers(1, 6)
        size = min(cols, data.draw(sizes))
        vec = st.dictionaries(
            st.integers(0, cols - 1), st.fractions(-4, 4, max_denominator=5).filter(bool),
            min_size=size, max_size=size,
        )
        return data.draw(st.lists(vec, min_size=1, max_size=4))

    assert_frames_match_the_sum_oracle(m1, m2, bound, vectors=random_vectors)


_RANK_TWO_SEARCHES = [
    tuple(BundleTransition.from_rows(
        case["n"], [[LP.from_json_dict(p) for p in row] for row in case[key]]
    ) for key in ("m1", "m2"))
    for case in GOLDEN_CERTIFICATES if len(case["m1"]) == 2
]


@pytest.mark.parametrize("bound", [None, 1, 4])
@pytest.mark.parametrize("pair", range(len(_RANK_TWO_SEARCHES)))
def test_rank_two_search_builds_frames_only_for_unit_determinant_candidates(monkeypatch, pair, bound):
    # verify's first test is the determinant, so the search builds frames
    # only for the candidates whose frames have unit determinants on both
    # charts, and still returns the first candidate whose frames hold
    m1, m2 = _RANK_TWO_SEARCHES[pair]
    spaces, built = [], []
    real_null_space, real_from_frames = bundles.null_space, bundles._certificate_from_frames

    def recording_null_space(pivots, cols):
        spaces.append(real_null_space(pivots, cols))
        return spaces[-1]

    def recording_from_frames(n, v_rows, u_rows, m1, m2):
        built.append((oracles.zu_matrix(u_rows), oracles.zu_matrix(v_rows)))
        return real_from_frames(n, v_rows, u_rows, m1, m2)

    monkeypatch.setattr(bundles, "null_space", recording_null_space)
    monkeypatch.setattr(bundles, "_certificate_from_frames", recording_from_frames)
    cert = collar_iso_certificate(m1, m2, bound=bound, exhaustive=True)

    n = m1.n
    if bound is None:
        bound = max(n, m1.z_spread() + m2.z_spread()) + 1
    _, columns = oracles.product_certificate_rows(m1, m2, bound)
    (vectors,) = spaces
    frames = [
        (oracles.zu_matrix(u_rows), oracles.zu_matrix(v_rows))
        for v_rows, u_rows in (oracles.sum_built_frames(vec, columns, 2) for vec in _candidates(vectors))
    ]
    units = [uv for uv in frames if oracles.unit_determinants(n, *uv)]
    m1_terms, m2_terms = oracles.zu_matrix(m1.entries), oracles.zu_matrix(m2.entries)
    expected = next(
        (uv for uv in frames if oracles.certificate_holds(n, m1_terms, m2_terms, *uv)), None
    )
    if expected is None:
        assert cert is None
        assert built == units
    else:
        assert (oracles.zu_matrix(cert.u_frame), oracles.zu_matrix(cert.v_frame)) == expected
        assert built == units[: units.index(expected) + 1]
    assert len(units) < len(frames)


@settings(max_examples=40, deadline=None)
@given(search_pairs())
def test_screened_search_returns_what_verifying_every_candidate_returns(case):
    # the oracle builds every candidate's frames as Laurent sums and
    # verifies each in the search's order; the search skips candidates
    # before building their frames, so it must reach the same answer
    m1, m2, bound = case
    spaces = []

    def recording_null_space(pivots, cols):
        spaces.append(null_space(pivots, cols))
        return spaces[-1]

    with mock.patch.object(bundles, "null_space", recording_null_space):
        cert = collar_iso_certificate(m1, m2, bound=bound, exhaustive=True)
    _, columns = oracles.product_certificate_rows(m1, m2, bound)
    built = (
        bundles.CollarIsoCertificate(m1.n, *(tuple(map(tuple, rows)) for rows in frames))
        for frames in (oracles.sum_built_frames(vec, columns, m1.rank) for vec in _candidates(spaces[0]))
    )
    assert cert == next((c for c in built if c.verify(m1, m2)), None)


def test_rank_two_search_builds_no_monomial(monkeypatch):
    # each frame entry is one constructor call on the vector's exponent
    # map; no frame term is built as a monomial, product or sum
    calls = []
    real = LaurentPoly.monomial.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    m1 = BundleTransition.canonical(2, 1, zp(-1))
    m2 = BundleTransition.canonical(2, 1, 3 * zp(-1))
    monkeypatch.setattr(LaurentPoly, "monomial", classmethod(counting))
    # inconclusive at bound 4: every candidate is screened on its exponent
    # maps, and those with unit determinants are built and verified
    assert collar_iso_certificate(m1, m2, bound=4, exhaustive=True) is None
    assert collar_iso_certificate(m1, m2, exhaustive=True) is not None
    assert calls == []
    # the normal form certifies the pair at bound 4: V = [[1, 2], [0, 1]]
    # clears the coboundary z^-1 of both corners, with U the identity
    cert = collar_iso_certificate(m1, m2, bound=4)
    assert cert.v_frame == ((LP.const(1), LP.const(2)), (LP.zero(), LP.const(1)))
    assert cert.u_frame == poly_mat_identity(2)
    assert cert.verify(m1, m2) and oracle_holds(cert, m1, m2)


@st.composite
def normal_form_pairs(draw):
    """Two canonical shapes on one collar whose corners are one class q and
    c * q, each plus its own coboundary terms: c z^a u^b with a >= j (U
    side) or a <= n b - j (V side).  The second shape is raised by 0, 1 or
    2 powers of phi, which multiply its class by (z^n u^2)^k, and the pair
    is drawn in either order."""
    n, j, k = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 2))
    levels = [b for b in range(-1, 3) if n * b - j + 1 < j]
    cls = []
    for b in draw(st.lists(st.sampled_from(levels), max_size=3)) if levels else []:
        cls.append((draw(st.integers(n * b - j + 1, j - 1)), b, draw(COEFFS)))
    c = draw(COEFFS)

    def coboundary(top):
        out = []
        for b, gap, above in draw(st.lists(st.tuples(
            st.integers(-2, 2), st.integers(0, 3), st.booleans()), max_size=3
        )):
            out.append((top + gap if above else n * b - top - gap, b, draw(COEFFS)))
        return zu_poly(out)

    q = zu_poly(cls)
    m1 = BundleTransition.canonical(n, j, q + coboundary(j))
    raised = c * q * mono(z=n * k, u=2 * k)
    m2 = BundleTransition.canonical(n, j + k * n, raised + coboundary(j + k * n))
    return (m1, m2) if draw(st.booleans()) else (m2, m1)


# n = 1: the class 1 of (1, 2), with a coboundary on each side, at the two
# cuts a = j and a = n b - j, against twice its phi image 2 z u^2 at (1, 3),
# in both orders
_PHI_PAIR = (
    BundleTransition.canonical(1, 2, LP.const(1) + zp(2) + mono(z=-1, u=1)),
    BundleTransition.canonical(1, 3, 2 * mono(z=1, u=2) + mono(z=-5, u=-1) + mono(z=4, u=-2)),
)


@settings(max_examples=80, deadline=None)
@given(normal_form_pairs())
@example(_PHI_PAIR)
@example(_PHI_PAIR[::-1])
def test_normal_form_certifies_proportional_classes(pair):
    # the closed form answers every such pair, so the search is never reached
    m1, m2 = pair
    with mock.patch.object(bundles, "_search_certificate", side_effect=AssertionError("searched")):
        cert = collar_iso_certificate(m1, m2)
    assert cert is not None
    assert cert.verify(m1, m2)
    assert oracle_holds(cert, m1, m2)


@pytest.mark.parametrize(
    "m1,m2,bound",
    [
        # not isomorphic: the class z^-1 of (2, 2) against the zero class
        (BundleTransition.canonical(2, 2, zp(-1)), BundleTransition.canonical(2, 2), None),
        (BundleTransition.canonical(1, 2, zp(-1)), BundleTransition.canonical(1, 2, zp(-1) + zp(1)), None),
        # classes that are not proportional, yet the search certifies them
        (BundleTransition.canonical(3, 2, zp(-1) + zp(1)),
         BundleTransition.canonical(3, 2, zp(-1) + 2 * zp(1)), None),
        (BundleTransition.canonical(1, 1, mono(u=-1)), BundleTransition.canonical(1, 1, mono(z=-1, u=-1)), 2),
        # one phi step apart, with the classes z^2 u^2 and 1 after it
        (BundleTransition.canonical(2, 1, LP.const(1)), BundleTransition.canonical(2, 3, LP.const(1)), 1),
        # top exponents not a multiple of n apart, and a lower triangular shape
        (BundleTransition.canonical(3, 1), BundleTransition.canonical(3, 2), 1),
        (BundleTransition.from_rows(2, [[zp(1), LP.zero()], [zp(-1), zp(-1)]]),
         BundleTransition.canonical(2, 1, zp(-1)), 2),
    ],
)
def test_pairs_the_normal_form_leaves_open_reach_the_search(m1, m2, bound):
    assert bundles._normal_form_certificate(m1, m2) is None
    assert collar_iso_certificate(m1, m2, bound=bound) == collar_iso_certificate(
        m1, m2, bound=bound, exhaustive=True
    )


def test_certificate_needs_matching_shape():
    with pytest.raises(ValueError):
        collar_iso_certificate(
            BundleTransition.line_class(2, 0), BundleTransition.line_class(3, 0)
        )
    with pytest.raises(ValueError):
        collar_iso_certificate(
            BundleTransition.line_class(2, 0), oracles.diagonal(2, 1, -1)
        )


def test_compare_line_bundles_obstruction():
    verdict = compare_line_bundles(3, 1, 2)
    assert not verdict.isomorphic
    assert verdict.certificate is None
    assert (verdict.residue1, verdict.residue2) == (1, 2)


def test_compare_line_bundles_names_the_frames_a_failed_check_rejected(monkeypatch):
    # a matching pair whose certificate fails its check is the program's
    # fault, not a bound to raise: the error names the pair and the frames
    monkeypatch.setattr(bundles.CollarIsoCertificate, "verify", lambda *args: False)
    with pytest.raises(VerificationFailed) as caught:
        compare_line_bundles(2, 0, 4)
    assert str(caught.value) == (
        "classes 0 and 4 share residue 0 mod 2, but the monomial frames "
        "v side u^-2*z^-4, u side u^-2 fail the certificate check"
    )


def test_compare_line_bundles_iff_sweep():
    for n in range(1, 5):
        for j1 in range(-2 * n, 2 * n + 1):
            for j2 in range(-2 * n, 2 * n + 1):
                verdict = compare_line_bundles(n, j1, j2)
                congruent = (j1 - j2) % n == 0
                assert verdict.isomorphic == congruent
                if congruent:
                    assert verdict.certificate is not None
                    assert verdict.certificate.verify(
                        BundleTransition.line_class(n, j1),
                        BundleTransition.line_class(n, j2),
                    )


# -- moduli dimension -----------------------------------------------------------


def test_moduli_dimension_values():
    assert moduli_dimension(2, 3).dimension == 2
    assert moduli_dimension(2, 2).dimension == 0
    empty = moduli_dimension(5, 1)
    assert empty.dimension is None
    assert "negative" in empty.note


def test_moduli_dimension_validation():
    with pytest.raises(ValueError):
        moduli_dimension(0, 1)
    with pytest.raises(ValueError):
        moduli_dimension(2, -1)


# -- transition validation --------------------------------------------------------


def test_transition_validation():
    with pytest.raises(ValueError):
        BundleTransition(2, ((zp(1), LP.zero()),))
    with pytest.raises(ValueError):
        BundleTransition(2, ((LP.var("z") + 1,),))
    with pytest.raises(ValueError):
        BundleTransition(2, ((LP.var("w"),),))
    with pytest.raises(ValueError):
        BundleTransition.canonical(2, -1)


def test_restrict_to_zero_section():
    trans = BundleTransition.canonical(2, 1, off=mono(z=1, u=1) + zp(-1))
    flat = trans.restrict_to_zero_section()
    assert flat.entries[0][1] == zp(-1)
    bad = BundleTransition(2, ((mono(u=-1),),))
    with pytest.raises(ValueError, match="0 substituted for u which occurs with exponent -1"):
        bad.restrict_to_zero_section()
