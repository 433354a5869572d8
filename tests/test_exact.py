"""Core arithmetic: Laurent polynomials and exact linear algebra."""

import contextlib
import json
import random
import re
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skelcollar.birmaps import Verdict
from skelcollar.bundles import BundleTransition, collar_iso_certificate, splitting_type
from skelcollar.duality import duality_report
from skelcollar.exact import (
    LaurentPoly,
    Record,
    echelon,
    null_space,
    poly_mat_det,
    poly_mat_identity,
    poly_mat_mul,
)

from skelcollar.skeleton import SkeletonComponent
from skelcollar.toric import QuotientSingularity

from oracles import dense_kernel, evaluate, laurent_product, named_terms, poly_mat_substitute

LP = LaurentPoly


def rand_poly(rng, names=("x", "y"), max_terms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-span, span) for _ in names)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return LP(names, terms)


def test_canonical_form_drops_zeros_and_unused_vars():
    p = LP(("y", "x"), {(0, 2): 3, (0, 0): 0})
    assert p.variables == ("x",)
    assert p == LP.var("x") ** 2 * 3


@pytest.mark.parametrize(
    "names, terms",
    [
        # a bad name is rejected even where its exponents are all zero and
        # pruning would drop it
        (("z", 1), {(1, 0): 1}),
        (("z", "z"), {(1, 0): 1}),
        (("z", "z"), {(1, 1): 1}),
        (("",), {(1,): 1}),
        (("",), {}),
        ((None,), {(0,): 1}),
    ],
)
def test_constructor_rejects_bad_variable_names(names, terms):
    with pytest.raises(ValueError, match="variable name"):
        LP(names, terms)


def test_variables_sorted_and_equality_is_structural():
    p = LP(("b", "a"), {(1, 2): 1})
    q = LP(("a", "b"), {(2, 1): 1})
    assert p == q
    assert hash(p) == hash(q)


def test_addition_merges_and_cancels():
    x = LP.var("x")
    assert x + (-x) == LP.zero()
    assert (x + 1) + (x - 1) == 2 * x


def test_ring_axioms_randomized():
    rng = random.Random(20260816)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + LP.zero() == a
        assert a * LP.const(1) == a


def test_negative_powers_are_exact():
    x = LP.var("x")
    assert x**-3 * x**3 == LP.const(1)
    assert (2 * x).inverse() == LP(("x",), {(-1,): Fraction(1, 2)})
    with pytest.raises(ValueError, match=re.escape("not a unit monomial: x + 1")):
        (x + 1).inverse()


def test_substitute_matches_evaluate():
    rng = random.Random(7)
    for _ in range(30):
        p = rand_poly(rng)
        vals = {"x": Fraction(rng.randint(1, 5)), "y": Fraction(-rng.randint(1, 5))}
        direct = evaluate(p, vals)
        via_sub = p.substitute({k: LP.const(v) for k, v in vals.items()})
        assert via_sub == LP.const(direct)


def test_substitute_composes():
    x, y = LP.var("x"), LP.var("y")
    p = x**2 * y - y**-1
    q = p.substitute({"x": y + 1})
    assert q == (y + 1) ** 2 * y - y**-1


def test_zero_into_negative_power_raises():
    p = LP.var("x") ** -1
    with pytest.raises(ValueError, match="0 substituted for x which occurs with exponent -1"):
        p.substitute({"x": LP.zero()})
    with pytest.raises(ValueError, match="0 given for x which occurs with exponent -1"):
        evaluate(p, {"x": 0})


def test_zero_into_positive_power_is_fine():
    p = LP.var("x") ** 2 + 5
    assert p.substitute({"x": LP.zero()}) == LP.const(5)


def test_diff_product_rule():
    rng = random.Random(11)
    for _ in range(25):
        a, b = rand_poly(rng), rand_poly(rng)
        lhs = (a * b).diff("x")
        rhs = a.diff("x") * b + a * b.diff("x")
        assert lhs == rhs


def test_diff_negative_exponent():
    x = LP.var("x")
    assert (x**-2).diff("x") == -2 * x**-3


def test_unit_monomial_detection():
    # a single term is a unit once its variables are inverted
    x = LP.var("x")
    assert (3 * x**2).is_monomial()
    assert (5 * x**-1).is_monomial()
    assert not (x + 1).is_monomial()
    assert not LP.zero().is_monomial()


def test_homogeneous_degree():
    x, y = LP.var("x"), LP.var("y")
    assert (x * y + y**2).homogeneous_degree(["x", "y"]) == 2
    assert (x + y**2).homogeneous_degree(["x", "y"]) is None
    assert (x * y + x).homogeneous_degree(["x"]) == 1


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng)
        assert LP.from_json_dict(p.to_json_dict()) == p
    third = LP(("z",), {(-1,): Fraction(1, 3)})
    assert LP.from_json_dict(third.to_json_dict()) == third


def test_constants_hash_like_their_value():
    assert {LP.const(1): "one"}.get(1) == "one"
    assert {LP.const(Fraction(-2, 3)): 0}.get(Fraction(-2, 3)) == 0
    assert {LP.zero(): 0}.get(0) == 0
    for value in (0, 1, -5, Fraction(7, 4)):
        assert LP.const(value) == value
        assert hash(LP.const(value)) == hash(value)


@pytest.mark.parametrize(
    "terms",
    [
        [{"exp": [1], "num": "1", "den": "0"}],
        [{"exp": [True], "num": "1", "den": "1"}],
        [{"exp": [1.0], "num": "1", "den": "1"}],
        [{"exp": ["1"], "num": "1", "den": "1"}],
        [{"exp": [2], "num": "1", "den": "1"}, {"exp": [2], "num": "3", "den": "1"}],
        # int() would truncate 2.5 to 2, read true as 1 and overflow on 1e999
        [{"exp": [1], "num": 2.5, "den": "1"}],
        [{"exp": [1], "num": True, "den": "1"}],
        [{"exp": [1], "num": float("inf"), "den": "1"}],
        [{"exp": [1], "num": "1", "den": 2.5}],
        [{"exp": [1], "num": "1", "den": True}],
        [{"exp": [1], "num": "1", "den": float("inf")}],
        [{"exp": [1], "num": "2.5", "den": "1"}],
    ],
)
def test_json_reader_rejects_malformed_terms(terms):
    with pytest.raises(ValueError):
        LP.from_json_dict({"vars": ["z"], "terms": terms})


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", True, None])
def test_constructors_refuse_exponents_that_are_not_integers(bad):
    # int() reads 2.5 and 2.0 as 2, "3" as 3 and True as 1
    named = re.escape(f"exponents must be integers, got ({bad!r},)")
    with pytest.raises(ValueError, match=f"^{named}$"):
        LP(("z",), {(bad,): 1})
    with pytest.raises(ValueError, match=f"^{named}$"):
        LP.monomial({"z": bad})


def test_json_reader_takes_integers_and_integer_strings():
    terms = [{"exp": [1], "num": -3, "den": 2}, {"exp": [-1], "num": "5", "den": "-4"}]
    p = LP.from_json_dict({"vars": ["z"], "terms": terms})
    assert p == LP(("z",), {(1,): Fraction(-3, 2), (-1,): Fraction(-5, 4)})


def test_str_is_readable():
    x, y = LP.var("x"), LP.var("y")
    assert str(x**2 - y) in ("x^2 - y", "-y + x^2")
    assert str(LP.zero()) == "0"
    assert str(LP.const(Fraction(-1, 2))) == "-1/2"


def test_immutable():
    p = LP.var("x")
    with pytest.raises(AttributeError):
        p.variables = ("y",)


# -- properties of the arithmetic ------------------------------------------------

# few exponents and coefficients, so sums and products often cancel terms
# and whole variables; a 0 coefficient exercises the public constructor
_COEFFS = st.sampled_from([Fraction(c) for c in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)])


@st.composite
def laurent_polys(draw):
    names = draw(st.sampled_from([("z", "u"), ("u", "z"), ("z",), ("u",), ()]))
    exps = st.tuples(*[st.integers(-2, 2)] * len(names))
    return LP(names, draw(st.dictionaries(exps, _COEFFS, max_size=4)))


def assert_identical(result, expected):
    """Field for field, term order included, with int exponents and
    Fraction coefficients."""
    assert result.variables == expected.variables
    assert list(result.terms.items()) == list(expected.terms.items())
    assert all(type(e) is int for exps in result.terms for e in exps)
    assert all(type(c) is Fraction for c in result.terms.values())


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms_hold(a, b, c):
    zero, one = LP.zero(), LP.const(1)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == zero
    assert a - a == zero
    assert a + zero == a
    assert a * one == a
    assert a * zero == zero


@given(
    laurent_polys(),
    laurent_polys(),
    st.sampled_from(["z", "u", "w"]),
    st.dictionaries(st.sampled_from(["z", "u", "w"]), st.integers(-2, 2)),
    _COEFFS,
)
def test_arithmetic_results_are_canonical(a, b, var, exponents, coeff):
    results = [a + b, a - b, a * b, -a, a + 2, 3 * a, 1 - a, a.diff(var)]
    results.append(LP.monomial(exponents, coeff))
    if a.is_monomial():
        results.append(a.inverse())
    for r in results:
        assert_identical(r, LP(r.variables, r.terms))


@st.composite
def one_term_polys(draw):
    """One term over up to three of z, u, w, its coefficient 1 or not."""
    names = draw(st.lists(st.sampled_from(["z", "u", "w"]), unique=True, max_size=3))
    exps = draw(st.tuples(*[st.integers(-2, 2)] * len(names)))
    coeff = draw(st.sampled_from([Fraction(1), Fraction(1), Fraction(-1), Fraction(3, 2)]))
    return LP(names, {exps: coeff})


_FACTORS = st.one_of(laurent_polys(), one_term_polys())


@given(_FACTORS, _FACTORS, st.sampled_from([0, 1, -1, 2, Fraction(1), Fraction(-2, 3)]))
# shifts that cancel z: by a one-term factor of coefficient 1 on the left,
# and of coefficient 1/2 on the right of two terms
@example(LP(("z",), {(1,): 1}), LP(("u", "z"), {(1, -1): 2}), 1)
@example(LP(("u", "z"), {(1, 2): 1, (0, 2): -1}), LP(("z",), {(-2,): Fraction(1, 2)}), 3)
def test_product_matches_the_dict_oracle(a, b, scalar):
    # with a one-term factor, on either side, the product is an exponent
    # shift of the other factor; a variable that cancels everywhere is pruned
    for x, y in ((a, b), (b, a), (scalar, a), (a, scalar)):
        variables, terms = laurent_product(x, y)
        product = x * y
        assert product.variables == variables
        assert named_terms(product) == terms
        assert_identical(product, LP(product.variables, product.terms))


@given(laurent_polys())
def test_json_round_trip_property(p):
    assert LP.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


# -- trusted construction on the pipeline's own inputs ------------------------------


@pytest.fixture
def checked_canonical(monkeypatch):
    """Every trusted construction also runs the validating constructor on
    the same input and must give the identical polynomial."""
    trusted = LP._from_canonical.__func__
    calls = []

    def checked(cls, variables, terms):
        expected = LP(variables, terms)
        result = trusted(cls, variables, terms)
        assert_identical(result, expected)
        calls.append(result)
        return result

    monkeypatch.setattr(LP, "_from_canonical", classmethod(checked))
    return calls


def test_trusted_construction_in_duality_report(checked_canonical):
    report = duality_report(4, 40, 1)
    assert report.all_ok
    assert checked_canonical


@pytest.mark.parametrize(
    "j, off",
    [
        (1, None),
        (2, None),
        (2, LP.monomial({"z": 1, "u": 1})),
        (2, LP.monomial({"z": 1})),
    ],
)
def test_trusted_construction_in_splitting_type(checked_canonical, j, off):
    splitting_type(BundleTransition.canonical(2, j, off=off))
    assert checked_canonical


GOLDEN_CERTIFICATES = json.loads(
    (Path(__file__).parent / "golden" / "certificates.json").read_text(encoding="utf-8")
)


def test_trusted_construction_in_golden_certificate_searches(checked_canonical):
    for case in GOLDEN_CERTIFICATES:
        m1, m2 = (
            BundleTransition.from_rows(
                case["n"], [[LP.from_json_dict(p) for p in row] for row in case[key]]
            )
            for key in ("m1", "m2")
        )
        found = collar_iso_certificate(
            m1, m2, bound=case["bound"], exhaustive=case["exhaustive"]
        )
        assert (found is None) == (case["certificate"] is None)
    assert checked_canonical


# -- sparse elimination ------------------------------------------------------


def sparse(rows):
    return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(rows)}


def kernel_of(rows, cols):
    """(rank, null-space basis as dense Fraction tuples) from the package's
    one elimination kernel."""
    pivots = echelon(sparse(rows))
    basis = tuple(
        tuple(vec.get(c, Fraction(0)) for c in range(cols)) for vec in null_space(pivots, cols)
    )
    return len(pivots), basis


def mul_vec(rows, vec):
    return tuple(sum((x * v for x, v in zip(row, vec)), Fraction(0)) for row in rows)


def test_rank_and_kernel_dimensions():
    rng = random.Random(99)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)]
        rk, ker = kernel_of(rows, c)
        assert rk + len(ker) == c
        for v in ker:
            assert mul_vec(rows, v) == (Fraction(0),) * r


def test_kernel_of_known_matrix():
    rows = [[1, 2, 3], [4, 5, 6]]
    _, (v,) = kernel_of(rows, 3)
    assert mul_vec(rows, v) == (Fraction(0), Fraction(0))
    assert v != (0, 0, 0)


def test_identity_and_rank_full():
    identity = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert kernel_of(identity, 4) == (4, ())
    assert sorted(echelon(sparse(identity))) == [0, 1, 2, 3]


def test_degenerate_shapes():
    zero = [[0, 0, 0], [0, 0, 0]]
    rank, kernel = kernel_of(zero, 3)
    assert rank == 0
    assert kernel == tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert echelon({}) == {}
    assert kernel_of([], 0) == (0, ())
    assert null_space({}, 0) == []


@st.composite
def rational_matrices(draw):
    """Small rational matrices, sparse or dense, with some rows made as
    combinations of others so that rank deficiency is common."""
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    density = draw(st.sampled_from((2, 5, 10)))  # nonzero cells per 10
    independent = draw(st.integers(0, 5))
    combined = draw(st.integers(0, 2)) if independent else 0
    cols = draw(st.integers(0, 6))
    rows = [
        [draw(entry) if draw(st.integers(0, 9)) < density else Fraction(0) for _ in range(cols)]
        for _ in range(independent)
    ]
    for _ in range(combined):
        weights = [draw(entry) for _ in rows]
        rows.append([sum((w * row[c] for w, row in zip(weights, rows)), Fraction(0))
                     for c in range(cols)])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], cols


class _Overran(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds):
    """Raise _Overran in the test if the body runs past ``seconds``, so an
    elimination that never empties a row fails instead of hanging."""

    def overran(signum, frame):
        raise _Overran

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@given(rational_matrices())
# the second row's update cancels the cell it holds at column 1 exactly
@example(([[Fraction(1), Fraction(2), Fraction(0)], [Fraction(2), Fraction(4), Fraction(1)]], 3))
# the second row's update fills column 1, which it does not hold
@example(([[Fraction(1), Fraction(3), Fraction(0)], [Fraction(2), Fraction(0), Fraction(1)]], 3))
def test_kernel_matches_dense_oracle(case):
    rows, cols = case
    try:
        with _alarm(5):
            pivots = echelon(sparse(rows))
    except _Overran:
        pytest.fail("echelon ran past the 5 s alarm")
    expected_pivots, expected_kernel = dense_kernel(rows, cols)
    assert tuple(sorted(pivots)) == expected_pivots
    rank, kernel = kernel_of(rows, cols)
    assert kernel == expected_kernel
    assert rank + len(kernel) == cols
    for vec in kernel:
        assert mul_vec(rows, vec) == (Fraction(0),) * len(rows)
    for vec in null_space(pivots, cols):
        assert all(vec.values())


@st.composite
def banded_or_block_matrices(draw):
    """Wide sparse systems in which most pivot rows never touch a given
    free column: a band of width 1..3 right of each row's start, or dense
    blocks on the diagonal, some rows repeated as combinations."""
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    rows = []
    if draw(st.booleans()):
        cols, width = draw(st.integers(1, 24)), draw(st.integers(1, 3))
        for start in draw(st.lists(st.integers(0, cols - 1), max_size=20)):
            row = [Fraction(0)] * cols
            for c in range(start, min(cols, start + width)):
                row[c] = draw(entry)
            rows.append(row)
    else:
        sizes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=6))
        cols = sum(width for _, width in sizes)
        offset = 0
        for height, width in sizes:
            block = [[draw(entry) for _ in range(width)] for _ in range(height)]
            if block and draw(st.booleans()):
                block.append([2 * x for x in block[0]])
            for part in block:
                rows.append([Fraction(0)] * offset + part + [Fraction(0)] * (cols - offset - width))
            offset += width
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], cols


@given(banded_or_block_matrices())
def test_sparse_back_substitution_matches_dense_oracle(case):
    # null_space visits only the pivot rows that touch a column already in
    # the vector; the basis must still be the dense oracle's
    rows, cols = case
    _, expected_kernel = dense_kernel(rows, cols)
    assert kernel_of(rows, cols)[1] == expected_kernel


@given(rational_matrices(), st.data())
def test_pivot_columns_do_not_depend_on_row_order(case, data):
    # the lead columns are the leftmost independent set and the reduced
    # kernel basis is fixed by them, whatever order the rows come in
    rows, cols = case
    order = data.draw(st.permutations(range(len(rows))))
    first = echelon(sparse(rows))
    second = echelon(sparse([rows[i] for i in order]))
    assert sorted(first) == sorted(second)
    assert null_space(first, cols) == null_space(second, cols)


# -- polynomial matrices --------------------------------------------------------


def test_poly_mat_mul_and_identity():
    x = LP.var("x")
    a = ((x, LP.const(1)), (LP.zero(), x**-1))
    i2 = poly_mat_identity(2)
    assert poly_mat_mul(a, i2) == a
    assert poly_mat_mul(i2, a) == a


def test_poly_mat_det():
    z = LP.var("z")
    m = ((z**2, z), (LP.zero(), z**-2))
    assert poly_mat_det(m) == LP.const(1)
    assert poly_mat_det(((z**3,),)) == z**3
    # the package builds transitions and frames of sizes 1 and 2 only
    m3 = tuple(tuple(map(LP.const, row)) for row in ((1, 2, 3), (0, 1, 4), (5, 6, 0)))
    for other in (m3, ()):
        with pytest.raises(ValueError, match="only sizes 1 and 2"):
            poly_mat_det(other)


def test_poly_mat_substitute():
    z, w = LP.var("z"), LP.var("w")
    m = ((z, LP.zero()), (LP.zero(), z**-1))
    n = poly_mat_substitute(m, {"z": w**2})
    assert n == ((w**2, 0), (0, w**-2))



# -- records -----------------------------------------------------------------------


class _Interval(Record):
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty interval")
        object.__setattr__(self, "width", self.hi - self.lo)


def test_records_of_different_types_are_unequal():
    assert _Interval(2, 5) == _Interval(lo=2, hi=5)
    assert QuotientSingularity(1, 1) == QuotientSingularity(n=1, a=1)
    assert QuotientSingularity(1, 1) != _Interval(1, 1)
    assert QuotientSingularity(1, 1) != (1, 1)
    assert len({QuotientSingularity(1, 1), QuotientSingularity(n=1, a=1), _Interval(1, 1)}) == 2


def test_record_hash_agrees_with_equality():
    a = Verdict(3, 0, ())
    b = Verdict(checked=3, skipped=0, failures=())
    assert a == b and hash(a) == hash(b)
    assert a != Verdict(3, 1, ())
    assert _Interval(3, 10) == _Interval(3, hi=10)
    assert hash(_Interval(3, 10)) == hash(_Interval(lo=3, hi=10))


def test_record_refuses_assignment_and_deletion():
    v = Verdict(3, 0, ())
    with pytest.raises(AttributeError):
        v.checked = 4
    with pytest.raises(AttributeError):
        del v.checked
    with pytest.raises(AttributeError):
        v.extra = 1
    assert v == Verdict(3, 0, ())


@pytest.mark.parametrize(
    "args,kwargs",
    [
        ((3, 0), {}),  # missing
        ((), {"checked": 3, "skipped": 0}),  # missing, by keyword
        ((3, 0, (), 9), {}),  # one too many
        ((3, 0, ()), {"extra": 1}),  # unexpected
        ((3, 0), {"extra": 1}),  # unexpected in place of a missing one
        ((3, 0, ()), {"checked": 3}),  # repeated
        # passed is read off the failures, never stored beside them
        ((True, 3, 0, ((1, 2),)), {}),
        ((3, 0, ((1, 2),)), {"passed": True}),
    ],
)
def test_record_argument_errors_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Verdict(*args, **kwargs)


class _WithClassAttribute(Record):
    lo: int
    hi: int = 10


def test_a_missing_field_raises_naming_the_fields():
    # every field is required: a class attribute is not a default
    names = r"\('checked', 'skipped', 'failures'\)"
    for call in (lambda: Verdict(3, 0), lambda: Verdict(3, skipped=0)):
        with pytest.raises(TypeError, match=f"^Verdict{names} got"):
            call()
    with pytest.raises(TypeError, match=r"^_WithClassAttribute\('lo', 'hi'\) got 1 and \[\]$"):
        _WithClassAttribute(3)
    assert Verdict(3, 0, failures=((1, 2),)).failures == ((1, 2),)


def test_record_post_init_runs_after_the_fields_are_set():
    interval = _Interval(3, 10)
    assert (interval.lo, interval.hi, interval.width) == (3, 10, 7)
    assert _Interval(3, hi=5).width == 2
    with pytest.raises(ValueError, match="empty interval"):
        _Interval(3, hi=1)
    with pytest.raises(ValueError, match="unit monomial"):
        BundleTransition(2, ((LP.var("z") + 1,),))


def test_record_repr_lists_the_fields_only():
    # derived properties (passed, description) are not fields
    assert repr(Verdict(3, 0, ())) == "Verdict(checked=3, skipped=0, failures=())"
    assert repr(SkeletonComponent(1, 2, frozenset(), ("x1",), ("y2",))) == (
        "SkeletonComponent(j=1, n=2, forced=frozenset(), free_base=('x1',), free_fiber=('y2',))"
    )
    assert repr(_Interval(3, 10)) == "_Interval(lo=3, hi=10)"
