"""Line and rank-2 bundles on the total spaces of negative twists over the
projective line, and on the collars obtained by removing the zero section.

Everything is phrased through explicit transition data on the two-chart
cover: U carries (z, u), V carries (xi, v), glued by xi = 1/z and
v = z^n u.  A transition matrix M sends U-side section data to the V side,
so the single entry z^(-d) describes the degree-d line bundle.  Section
counts, splitting types, residue classes mod n and frame-change
certificates reduce to exact linear algebra over these Laurent
representations.  The dimension of rank-2 moduli is the cited closed form
2j - n - 2 (Ballico, Gasparim and Koppe 2009), not a linear-algebra
result.  Every isomorphism over the collar, of line bundles in the Picard
table as of rank-2 transitions, is certified the same way: a
CollarIsoCertificate, checked by its verify.  Two canonical rank-2 shapes
get theirs in closed form, from Gasparim's normal form (J. Algebra 1998);
a bounded kernel search is the fallback.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

from .exact import (
    LaurentPoly,
    PolyMatrix,
    Record,
    SparseRow,
    VerificationFailed,
    echelon,
    null_space,
    poly_mat_det,
    poly_mat_identity,
    poly_mat_mul,
)

U_BASE = "z"
U_FIBER = "u"


class BoundTooSmall(VerificationFailed, RuntimeError):
    """A degree window was too narrow for the answer to have stabilised."""


def _z_power(e: int) -> LaurentPoly:
    return LaurentPoly.monomial({U_BASE: e})


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"twist parameter must be a positive integer, got {n!r}")


# ---------------------------------------------------------------------------
# line bundle classes on the collar


class PicardGroup(Record):
    """Isomorphism classes of collar line bundles with the tensor operation.

    Classes are labelled by residues 0..n-1, and the tensor of classes a and
    b is the class (a + b) mod n.  ``picard_group`` certifies, for each
    degree d = 0..2n-2 that a sum a + b reaches, that the degree-d bundle is
    the degree d mod n one: v^s on the V side and u^s on the U side, with
    s = d div n.  Distinct classes are told apart by the residue of the
    degree mod n."""

    n: int

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.tensor_class(a, b) for b in self.classes) for a in self.classes)

    def tensor_class(self, a: int, b: int) -> int:
        return (a + b) % self.n


def picard_group(n: int) -> PicardGroup:
    _check_n(n)
    for d in range(2 * n - 1):
        # raises VerificationFailed, naming the frames, if the check fails
        compare_line_bundles(n, d, d % n)
    return PicardGroup(n)


# ---------------------------------------------------------------------------
# rank <= 2 transition matrices


class BundleTransition(Record):
    """A square transition matrix over the chart overlap, entries Laurent in
    z and polynomial or Laurent in u; the determinant must be a single
    invertible term there."""

    n: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        rank = len(self.entries)
        if rank not in (1, 2):
            raise ValueError("only rank 1 and rank 2 transitions are supported")
        for row in self.entries:
            if len(row) != rank:
                raise ValueError("transition matrix must be square")
            for p in row:
                if not set(p.variables) <= {U_BASE, U_FIBER}:
                    raise ValueError(f"entry uses variables outside (z, u): {p}")
        if not self.det().is_monomial():
            raise ValueError("transition determinant must be a unit monomial")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def det(self) -> LaurentPoly:
        return poly_mat_det(self.entries)

    def z_spread(self) -> int:
        """Largest absolute z-exponent appearing in any entry."""
        spread = 0
        for row in self.entries:
            for p in row:
                spread = max(spread, abs(p.min_exponent(U_BASE)), abs(p.max_exponent(U_BASE)))
        return spread

    def restrict_to_zero_section(self) -> "BundleTransition":
        """Set the fiber coordinate to zero; fails if a negative fiber power
        makes the entry blow up there."""
        rows = tuple(
            tuple(p.substitute({U_FIBER: 0}) for p in row) for row in self.entries
        )
        return BundleTransition(self.n, rows)

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence[LaurentPoly]]) -> "BundleTransition":
        return cls(n, tuple(tuple(row) for row in rows))

    @classmethod
    def line_class(cls, n: int, j: int) -> "BundleTransition":
        """The degree-j line bundle: single entry z^(-j)."""
        return cls(n, ((_z_power(-j),),))

    @classmethod
    def canonical(cls, n: int, j: int, off: LaurentPoly | None = None) -> "BundleTransition":
        """Upper triangular [[z^j, p], [0, z^-j]] with j >= 0: the normal
        shape for a rank-2 transition with vanishing first Chern class."""
        if j < 0:
            raise ValueError("canonical shape requires a nonnegative exponent")
        p = LaurentPoly.zero() if off is None else off
        rows = ((_z_power(j), p), (LaurentPoly.zero(), _z_power(-j)))
        return cls(n, rows)


# ---------------------------------------------------------------------------
# section counting

def zu_terms(p: LaurentPoly) -> Iterator[tuple[int, int, Fraction]]:
    """(z exponent, u exponent, coefficient) for each term of a (z, u)
    polynomial; an absent variable has exponent 0."""
    zi = p.variables.index(U_BASE) if U_BASE in p.variables else None
    ui = p.variables.index(U_FIBER) if U_FIBER in p.variables else None
    for exps, coeff in p.terms.items():
        yield (exps[zi] if zi is not None else 0, exps[ui] if ui is not None else 0, coeff)


def _accumulate(total: dict, key: object, x: Fraction) -> None:
    """Add x at key, dropping the entry if it cancels.  x must be nonzero:
    a first write stores x as it is, with no arithmetic."""
    if key not in total:
        total[key] = x
        return
    s = total[key] + x
    if s:
        total[key] = s
    else:
        del total[key]


def _section_count(trans: BundleTransition, twist: int, window: int) -> int:
    """Dimension of pairs (s_U, s_V) with s_V = z^(-twist) * M * s_U, both
    sides u-free polynomial vectors with z-degrees inside the window.

    The V side never couples: the coefficient of xi^k v^m in component r is
    read off from the single overlap monomial z^(n m - k) u^m, so it absorbs
    that bucket whenever k lands inside the window and the solution count is
    the U-side unknowns minus the rank of the leftover bucket constraints.
    The degree k is the outer loop, so the basis monomial z^k is built once
    per degree; column k * rank + c is z^k in component c.  Both products of
    a row are by one term, so ``LaurentPoly.__mul__`` forms each as an
    exponent shift.
    """
    rank = trans.rank
    n = trans.n
    z_neg_twist = _z_power(-twist)
    rows: dict[tuple[int, int, int], SparseRow] = {}
    for k in range(window + 1):
        basis = _z_power(k)
        for c in range(rank):
            col_id = k * rank + c
            for r in range(rank):
                contrib = z_neg_twist * trans.entries[r][c] * basis
                for e, m, coeff in zu_terms(contrib):
                    if not 0 <= n * m - e <= window:
                        _accumulate(rows.setdefault((r, e, m), {}), col_id, coeff)
    return rank * (window + 1) - len(echelon(rows))


def h0_twist(trans: BundleTransition, twist: int) -> int:
    """Count section pairs of the twisted bundle by brute-force linear
    algebra over the degree window z spread + |twist| + 1, at fiber degree 0.

    The window is doubled once as a self-check; a changed answer raises
    BoundTooSmall instead of returning either value.
    """
    for row in trans.entries:
        for p in row:
            if p.min_exponent(U_FIBER) < 0:
                raise ValueError("section counting needs nonnegative fiber powers")
    window = trans.z_spread() + abs(twist) + 1
    first = _section_count(trans, twist, window)
    second = _section_count(trans, twist, 2 * window + 1)
    if first != second:
        raise BoundTooSmall(
            f"section count at twist {twist} moved from {first} to {second} "
            f"when the degree window grew past {window}"
        )
    return first


def splitting_type(trans: BundleTransition) -> tuple[int, int]:
    """Splitting (j, -j) of a rank-2 transition with trivial determinant
    over the zero section, read off from the section-count profile.

    On the projective line the bundle is O(j) + O(-j), so twist m has
    max(0, m + j + 1) + max(0, m - j + 1) sections.  The count never
    decreases as m grows: multiplying by a section of O(1) embeds
    H0(E(m - 1)) into H0(E(m)).  So j is the last k with sections at
    twist -k, found by walking down from twist 0 until the first twist
    without sections; every twist below that one has none either and is
    never counted.  The walk stops with BoundTooSmall at the degree cap
    (z spread + 1), and the counts on -j..j must match the split pair.
    """
    if trans.rank != 2:
        raise ValueError("splitting type is computed for rank-2 transitions")
    restricted = trans.restrict_to_zero_section()
    det = restricted.det()
    if det.max_exponent(U_BASE) != 0:
        raise ValueError("splitting profile needs determinant 1 over the zero section")
    cap = restricted.z_spread() + 1
    cache: dict[int, int] = {}

    def count(m: int) -> int:
        if m not in cache:
            cache[m] = h0_twist(restricted, m)
        return cache[m]

    if count(0) == 0:
        raise ValueError("no sections at twist zero: determinant bookkeeping is off")
    j = 0
    while count(-(j + 1)) > 0:
        j += 1
        if j == cap:
            raise BoundTooSmall(
                f"sections persist beyond the degree cap {cap}: "
                f"twist {-cap} still has {count(-cap)}"
            )
    for m in range(-j, j + 1):
        expected = max(0, m + j + 1) + max(0, m - j + 1)
        if count(m) != expected:
            raise ValueError(
                f"section counts do not match any split pair at twist {m}: "
                f"found {count(m)}, the pair ({j}, {-j}) has {expected}"
            )
    return (j, -j)


# ---------------------------------------------------------------------------
# frame-change certificates on the collar


class CollarIsoCertificate(Record):
    """An exact pair of frame changes exhibiting two transitions as the same
    bundle over the collar: m2 * u_frame = v_frame * m1, with both frames
    regular and invertible over their chart rings.  Both frames are written
    in overlap (z, u) coordinates; a V-frame term z^a u^b is xi^(n b - a) v^b
    in (xi, v)."""

    n: int
    v_frame: PolyMatrix
    u_frame: PolyMatrix

    def verify(self, m1: BundleTransition, m2: BundleTransition) -> bool:
        """The one check of a certificate: both frames are square of the
        transitions' common rank, both determinants are units, every frame
        entry is a function on its chart, and m2 * u_frame = v_frame * m1.
        On the collar u and v are units, so the U determinant is one term
        z^0 u^b and the V determinant one term v^b = z^(n b) u^b; a U-frame
        term z^a u^b needs a >= 0 and a V-frame term z^a u^b = xi^(n b - a)
        v^b needs n b - a >= 0."""
        n, rank = self.n, m1.rank
        frames = ((self.u_frame, False), (self.v_frame, True))
        square = all(len(f) == rank and all(len(row) == rank for row in f) for f, _ in frames)
        if m2.rank != rank or not square:
            return False
        for frame, v_side in frames:
            det = list(zu_terms(poly_mat_det(frame)))
            if len(det) != 1 or det[0][0] != (n * det[0][1] if v_side else 0):
                return False
            for p in (p for row in frame for p in row):
                if not set(p.variables) <= {U_BASE, U_FIBER}:
                    return False
                if any((n * b - a if v_side else a) < 0 for a, b, _ in zu_terms(p)):
                    return False
        return poly_mat_mul(m2.entries, self.u_frame) == poly_mat_mul(self.v_frame, m1.entries)


def _canonical_corner(trans: BundleTransition) -> Optional[tuple[int, LaurentPoly]]:
    """(j, p) if trans is [[z^j, p], [0, z^-j]] with j >= 0, else None."""
    j, p = trans.entries[0][0].max_exponent(U_BASE), trans.entries[0][-1]
    shape = ((_z_power(j), p), (LaurentPoly.zero(), _z_power(-j)))
    return (j, p) if j >= 0 and trans.entries == shape else None


def phi_transform(trans: BundleTransition) -> tuple[BundleTransition, CollarIsoCertificate]:
    """The collar's identification of splitting type j with j + n.

    For a canonical [[z^j, p], [0, z^-j]], the image is the canonical
    [[z^(j+n), z^n u^2 p], [0, z^-(j+n)]] with the certificate
    V = diag(v, 1/v), U = diag(u, 1/u), v = z^n u: u and v are units on the
    collar, and the new corner vanishes on the zero section whenever p is
    regular there, so the image splits as (j + n, -j - n) with the same
    residue j mod n."""
    shape = _canonical_corner(trans)
    if shape is None:
        raise ValueError("phi takes a canonical [[z^j, p], [0, z^-j]] with j >= 0")
    (j, p), n = shape, trans.n
    u, v = LaurentPoly.var(U_FIBER), LaurentPoly.monomial({U_BASE: n, U_FIBER: 1})
    zero = LaurentPoly.zero()
    frames = (((v, zero), (zero, v**-1)), ((u, zero), (zero, u**-1)))
    return BundleTransition.canonical(n, j + n, v * u * p), CollarIsoCertificate(n, *frames)


def _certificate_from_frames(
    n: int,
    v_rows: Sequence[Sequence[LaurentPoly]],
    u_rows: Sequence[Sequence[LaurentPoly]],
    m1: BundleTransition,
    m2: BundleTransition,
) -> Optional[CollarIsoCertificate]:
    cert = CollarIsoCertificate(n, tuple(map(tuple, v_rows)), tuple(map(tuple, u_rows)))
    return cert if cert.verify(m1, m2) else None


def _monomial_line_certificate(
    m1: BundleTransition, m2: BundleTransition, bound: int
) -> Optional[CollarIsoCertificate]:
    """Closed-form search for two single-term rank-1 transitions: the only
    candidate frames are pure fiber powers, fixed by exponent bookkeeping."""
    n = m1.n
    p1 = m1.entries[0][0]
    p2 = m2.entries[0][0]
    dz = p1.max_exponent(U_BASE) - p2.max_exponent(U_BASE)
    du = p1.max_exponent(U_FIBER) - p2.max_exponent(U_FIBER)
    # v^beta * p1 = z^(n beta) u^beta * p1 must equal a u-unit times p2
    if dz % n != 0:
        return None
    beta = -dz // n
    u_exp = beta + du
    if abs(beta) > bound or abs(u_exp) > bound:
        return None
    v_rows = ((LaurentPoly.monomial({U_BASE: n * beta, U_FIBER: beta}),),)
    ((_, c1),) = p1.sorted_terms()
    ((_, c2),) = p2.sorted_terms()
    u_rows = ((LaurentPoly.monomial({U_FIBER: u_exp}, c1 / c2),),)
    return _certificate_from_frames(n, v_rows, u_rows, m1, m2)


# kernel vectors whose pairwise sums the search tries as frames
_PAIR_CAP = 24


def _search_certificate(
    m1: BundleTransition, m2: BundleTransition, bound: int
) -> Optional[CollarIsoCertificate]:
    """Kernel search over bounded frame entries for m2 * B = A * m1.

    Column c of the system is the frame term ``shape[c]`` (side, frame row
    and column, z and u exponents on the overlap).  A frame term times a
    transition entry is the entry's terms shifted by the term's exponents,
    so each entry is read once and no product is formed.  Each null vector,
    then sums of pairs of the first ``_PAIR_CAP`` and the sum of all, is
    tried as a frame pair, and ``verify`` decides.  A candidate's frame
    entries are first exponent maps, {(u, z) exponents of ``shape[c]``:
    vec[c]}; columns are distinct frame terms, so no key repeats.  Frames
    are built, one constructor call per entry, only for candidates that
    pass verify's determinant test on those maps.  A 1 x 1 frame is a unit
    only if it is one term.  For rank 1, V * m1 = m2 * U with single-term
    m1 and m2 gives both frames the same number of terms, so a vector
    without exactly two nonzeros is skipped.  For rank 2,
    ``_unit_determinants`` forms both determinants on the maps and skips a
    candidate unless they are the units verify asks for."""
    n = m1.n
    rank = m1.rank
    monomials = list(product(range(bound + 1), range(-bound, bound + 1)))
    terms1 = [[[(z, u, -c) for z, u, c in zu_terms(p)] for p in row] for row in m1.entries]
    terms2 = [[list(zu_terms(p)) for p in row] for row in m2.entries]
    # every (row, column) cell is written once
    rows: dict[tuple[int, int, int], SparseRow] = {}
    shape: list[tuple[str, int, int, int, int]] = []
    for i, k in product(range(rank), repeat=2):
        for alpha, beta in monomials:
            # A[i][k] term xi^alpha v^beta, on the overlap z^(n beta - alpha) u^beta
            dz, col = n * beta - alpha, len(shape)
            for jj in range(rank):
                for z, u, coeff in terms1[k][jj]:
                    rows.setdefault((i * rank + jj, z + dz, u + beta), {})[col] = coeff
            shape.append(("v", i, k, dz, beta))
    for k, jj in product(range(rank), repeat=2):
        for alpha, beta in monomials:
            col = len(shape)
            for i in range(rank):
                for z, u, coeff in terms2[i][k]:
                    rows.setdefault((i * rank + jj, z + alpha, u + beta), {})[col] = coeff
            shape.append(("u", k, jj, alpha, beta))

    vectors = null_space(echelon(rows), len(shape))
    if not vectors:
        return None

    def assemble(vec: SparseRow) -> Optional[CollarIsoCertificate]:
        if rank == 1 and len(vec) != 2:
            return None
        terms = {side: [[{} for _ in range(rank)] for _ in range(rank)] for side in "vu"}
        for c, x in vec.items():
            side, a, b, z, u = shape[c]
            terms[side][a][b][u, z] = x
        if rank == 2 and not _unit_determinants(n, terms):
            return None
        frames = [[[LaurentPoly((U_FIBER, U_BASE), t) for t in row] for row in terms[s]] for s in "vu"]
        return _certificate_from_frames(n, *frames, m1, m2)

    for vec in vectors:
        cert = assemble(vec)
        if cert is not None:
            return cert
    # single kernel vectors rarely have invertible frames for rank 2; try
    # small sums before giving up
    head = vectors[:_PAIR_CAP]
    for a in range(len(head)):
        for b in range(a + 1, len(head)):
            cert = assemble(_vector_sum((head[a], head[b])))
            if cert is not None:
                return cert
    return assemble(_vector_sum(vectors))


def _vector_sum(vectors: Sequence[SparseRow]) -> SparseRow:
    total: SparseRow = {}
    for vec in vectors:
        for c, x in vec.items():
            _accumulate(total, c, x)
    return total


def _unit_determinants(n: int, terms: dict[str, list[list[dict]]]) -> bool:
    """The determinant test of ``CollarIsoCertificate.verify`` on a 2 x 2
    frame pair given as exponent maps {(u, z): coefficient} per entry:
    t00 t11 - t01 t10, formed exactly with cancelled terms dropped, is one
    term z^0 u^b on the U side and one term z^(n b) u^b on the V side."""
    for side, slope in (("u", 0), ("v", n)):
        (t00, t01), (t10, t11) = terms[side]
        det: dict[tuple[int, int], Fraction] = {}
        for p, q in ((t00, t11), ({k: -x for k, x in t01.items()}, t10)):
            for (u1, z1), x in p.items():
                for (u2, z2), y in q.items():
                    _accumulate(det, (u1 + u2, z1 + z2), x * y)
        if [z - slope * u for u, z in det] != [0]:
            return False
    return True


def _split_corner(n: int, j: int, p: LaurentPoly) -> tuple[dict, ...]:
    """Split the corner p of M = [[z^j, p], [0, z^-j]] into its class, the
    terms c z^a u^b with n b - j < a < j keyed (a, b), and coboundaries: a
    term with a >= j goes into y = c z^(a-j) u^b, one with a <= n b - j into
    x = -c z^(a+j) u^b, both keyed (u, z).  Then [[1, x], [0, 1]] M
    [[1, -y], [0, 1]] is the same shape with the class as corner."""
    cls, x, y = {}, {}, {}
    for a, b, c in zu_terms(p):
        if a >= j:
            y[b, a - j] = c
        elif a <= n * b - j:
            x[b, a + j] = -c
        else:
            cls[a, b] = c
    return cls, x, y


def _adjugate(frame: PolyMatrix) -> PolyMatrix:
    """The inverse of a 2 x 2 frame of determinant 1."""
    (a, b), (c, d) = frame
    return ((d, -b), (-c, a))


def _normal_form_certificate(
    m1: BundleTransition, m2: BundleTransition
) -> Optional[CollarIsoCertificate]:
    """Closed-form certificate for two canonical [[z^j, p], [0, z^-j]] whose
    top exponents differ by a multiple of n, or None (Gasparim's normal
    form).  The lower shape is first raised by powers of phi, with frames F.
    ``_split_corner`` gives unipotent frames V_i, U_i that reduce corner i to
    its class.  If the classes are q = c p, or both zero with c = 1, then
    V = V_2^-1 diag(c, 1) V_1 and U = U_2^-1 diag(c, 1) U_1, times F on the
    right if m1 was raised, or F^-1 on the left if m2 was.  ``verify``
    decides, as for every certificate."""
    n, shapes = m1.n, [_canonical_corner(m) for m in (m1, m2)]
    if None in shapes or (shapes[1][0] - shapes[0][0]) % n:
        return None
    steps, identity = (shapes[1][0] - shapes[0][0]) // n, poly_mat_identity(2)
    raised, low, lift = [m1, m2], int(steps < 0), (identity, identity)
    for _ in range(abs(steps)):
        raised[low], phi = phi_transform(raised[low])
        lift = (poly_mat_mul(phi.v_frame, lift[0]), poly_mat_mul(phi.u_frame, lift[1]))
    j = max(shapes[0][0], shapes[1][0])
    (cls1, *frames1), (cls2, *frames2) = (_split_corner(n, j, m.entries[0][1]) for m in raised)
    if cls1.keys() != cls2.keys():
        return None
    c = next((cls2[k] / x for k, x in cls1.items()), Fraction(1))
    if any(cls2[k] != c * x for k, x in cls1.items()):
        return None
    frames = []
    for e1, e2, f in zip(frames1, frames2, lift):
        corner = c * LaurentPoly((U_FIBER, U_BASE), e1) - LaurentPoly((U_FIBER, U_BASE), e2)
        frame = ((LaurentPoly.const(c), corner), identity[1])
        if steps:
            frame = poly_mat_mul(frame, f) if steps > 0 else poly_mat_mul(_adjugate(f), frame)
        frames.append(frame)
    return _certificate_from_frames(n, *frames, m1, m2)


def collar_iso_certificate(
    m1: BundleTransition,
    m2: BundleTransition,
    bound: int | None = None,
    exhaustive: bool = False,
) -> Optional[CollarIsoCertificate]:
    """Search for frame changes identifying two transitions over the collar.

    Unless ``exhaustive`` asks for the full kernel search, rank-1 inputs
    (one term each) are resolved by exponent bookkeeping, and two canonical
    rank-2 shapes by ``_normal_form_certificate``; that closed form has no
    bound, and a shape it leaves open falls through to the search.  Equal
    inputs take the same routes: both closed forms give them identity
    frames, and equal non-canonical rank-2 inputs reach the search.
    ``bound`` limits the line frames' exponents and the search.  None
    means nothing was found: that outcome is inconclusive, never a
    disproof.  Disproofs come from the residue invariant carried by the
    line-bundle classes.
    """
    if m1.n != m2.n:
        raise ValueError("certificate search needs a common collar")
    if m1.rank != m2.rank:
        raise ValueError("certificate search needs equal ranks")
    if bound is None:
        bound = max(m1.n, m1.z_spread() + m2.z_spread()) + 1
    if not exhaustive:
        if m1.rank == 1:
            return _monomial_line_certificate(m1, m2, bound)
        cert = _normal_form_certificate(m1, m2)
        if cert is not None:
            return cert
    return _search_certificate(m1, m2, bound)


class LineBundleComparison(Record):
    """Verdict for two collar line-bundle classes: the residue invariant
    decides, and a matching pair ships with an explicit certificate."""

    residue1: int
    residue2: int
    certificate: Optional[CollarIsoCertificate]

    @property
    def isomorphic(self) -> bool:
        return self.residue1 == self.residue2


def compare_line_bundles(n: int, j1: int, j2: int) -> LineBundleComparison:
    """Compare the degree-j1 and degree-j2 classes; a matching pair is
    certified by the frames v^b on V and u^b on U, b = (j1 - j2) / n, which
    the default bound of `collar_iso_certificate` always admits."""
    _check_n(n)
    r1, r2 = j1 % n, j2 % n
    if r1 != r2:
        return LineBundleComparison(r1, r2, None)
    cert = collar_iso_certificate(
        BundleTransition.line_class(n, j1), BundleTransition.line_class(n, j2)
    )
    if cert is None:
        b = (j1 - j2) // n
        v_frame, u_frame = (LaurentPoly.monomial({U_BASE: n * b, U_FIBER: b}),
                            LaurentPoly.monomial({U_FIBER: b}))
        raise VerificationFailed(
            f"classes {j1} and {j2} share residue {r1} mod {n}, but the monomial "
            f"frames v side {v_frame}, u side {u_frame} fail the certificate check"
        )
    return LineBundleComparison(r1, r2, cert)


# ---------------------------------------------------------------------------
# moduli dimension


class ModuliDimension(Record):
    """Expected dimension 2j - n - 2 for rank-2 moduli at splitting type j;
    a negative value is reported as empty, not as an error."""

    dimension: Optional[int]
    note: str


def moduli_dimension(n: int, j: int) -> ModuliDimension:
    _check_n(n)
    if j < 0:
        raise ValueError("splitting type must be nonnegative")
    value = 2 * j - n - 2
    if value < 0:
        return ModuliDimension(
            dimension=None,
            note=(
                f"2*{j} - {n} - 2 = {value} is negative: no irreducible "
                "rank-2 bundles at this splitting type, reported as empty"
            ),
        )
    return ModuliDimension(dimension=value, note="")
