"""Reference routes for the tests: a dense fraction-free elimination, the
cofactor expansion of a determinant, term-by-term evaluation of a Laurent
polynomial at a point, and the birational round trip on Fraction points
through that evaluation, and the splitting type read from the section
counts at every twist down to the degree cap, the rows of one section
count built from Laurent products column by column, the check of a collar
frame-change certificate on {(z exponent, u exponent): Fraction} dicts,
and the rows and candidate frames of the certificate search built from
Laurent products and sums; the Laurent product on {named exponents:
Fraction} dicts, projective equality
by every pair of coordinates, the order of a Picard class by repeated
tensoring, and the skeleton index of a collar residue pair; the two-chart
cover of the local surface, split rank-2 transitions, the closed-form shape
of each skeleton component, the cocycle condition of the cotangent atlas,
the value of a continued fraction, cone membership and the unimodularity
of a resolved fan.
They share no code with the package's sparse kernel, its continuants, its
compiled map evaluation, its twist walk or its certificate check and are
slow and simple on purpose; the package's answers are checked against
them.  ``broken_pair`` is a map pair whose claimed
inverse is wrong, for the failure paths."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from skelcollar.birmaps import (
    ComposedMap,
    DegenerateSampler,
    IndeterminacyHit,
    MapPair,
    RationalMap,
    RationalSampler,
    Verdict,
    linear_projection,
    projectively_equal,
    segre,
)
from skelcollar.bundles import BoundTooSmall, BundleTransition, U_BASE, h0_twist
from skelcollar.exact import LaurentPoly, ZeroIntoNegativePower, poly_mat_mul


def int_rows(rows):
    """Scale each rational row to integers; neither the rank nor the null
    space changes."""
    out = []
    for row in rows:
        scale = lcm(1, *(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * scale) for x in row])
    return out


def dense_echelon(rows):
    """In-place forward elimination of integer rows, column by column, with
    the first nonzero row as pivot and every updated row divided by its
    gcd; returns (echelon rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            head = rows[i][c]
            if not head:
                continue
            new_row = [piv * a - head * b for a, b in zip(rows[i], rows[r])]
            g = gcd(*new_row)
            if g > 1:
                new_row = [x // g for x in new_row]
            rows[i] = new_row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_kernel(rows, ncols):
    """(pivot columns, reduced null-space basis as dense Fraction tuples),
    one basis vector per free column."""
    echelon, pivots = dense_echelon(int_rows(rows))
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum((echelon[r][c] * vec[c] for c in range(pc + 1, ncols)), Fraction(0))
            vec[pc] = -s / echelon[r][pc]
        basis.append(tuple(vec))
    return tuple(pivots), tuple(basis)


def cofactor_det(rows):
    """Laplace expansion along the first row.  Minors repeat across the
    expansion and across calls, so each distinct one is expanded once; that
    keeps a 40 x 40 tridiagonal matrix polynomial instead of Fibonacci-many
    calls."""
    return _expand(tuple(tuple(Fraction(x) for x in row) for row in rows))


@lru_cache(maxsize=1 << 16)
def _expand(rows):
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head:
            minor = tuple(row[:j] + row[j + 1 :] for row in rows[1:])
            total += (-1) ** j * head * _expand(minor)
    return total


def evaluate(poly, values):
    """Value of ``poly`` at the name-to-number mapping ``values``, as a
    Fraction.  A term stops at its first zero value under a positive
    power, in the polynomial's variable order; a zero under a negative
    power raises ZeroIntoNegativePower."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(poly.variables, exps):
            if e == 0:
                continue
            if v not in values:
                raise ValueError(f"no value supplied for variable {v}")
            x = Fraction(values[v])
            if not x:
                if e < 0:
                    raise ZeroIntoNegativePower(f"0 given for {v} which occurs with exponent {e}")
                term = Fraction(0)
                break
            term *= x**e
        total += term
    return total


def apply_map(rational_map, point):
    """Image of ``point`` under a RationalMap or ComposedMap, stage by
    stage, each component evaluated over a name-to-value bindings dict."""
    stages = rational_map.stages if isinstance(rational_map, ComposedMap) else (rational_map,)
    for stage in stages:
        bindings = {}
        for names, values in zip(stage.source_vars, point):
            bindings.update(zip(names, values))
        image = []
        for comps in stage.components:
            values = tuple(evaluate(c, bindings) for c in comps)
            if not any(values):
                raise IndeterminacyHit("sample on the indeterminacy locus")
            image.append(values)
        point = tuple(image)
    return point


def verify_birational(pair, samples=100, seed=1, retries=10):
    """The round trip on the drawn Fraction points themselves."""
    sampler = RationalSampler(seed)
    checked = 0
    skipped = 0
    failures = []
    for _ in range(samples):
        for _ in range(retries):
            point = sampler.point(pair.forward.source_dims)
            try:
                back = apply_map(pair.inverse, apply_map(pair.forward, point))
            except IndeterminacyHit:
                continue
            checked += 1
            if not projectively_equal(point, back):
                failures.append((point, back))
            break
        else:
            skipped += 1
    if checked == 0:
        raise DegenerateSampler(f"all {samples} samples hit indeterminacy loci")
    return Verdict(checked, skipped, tuple(failures))


def broken_pair():
    """Forgetting both mixed products of the (1, 1) Segre image leaves no
    way back; the claimed inverse fixes the second factor at a constant."""
    forward = ComposedMap((segre(1, 1), linear_projection(3, (0, 2))))
    one = LaurentPoly.const(1)
    w0, w1 = LaurentPoly.var("w0"), LaurentPoly.var("w1")
    inverse = RationalMap((1,), (1, 1), (("w0", "w1"),), ((w0, w1), (one, one)), "broken")
    return MapPair(forward, inverse)


def full_walk_splitting_type(trans, counts=None):
    """Splitting (j, -j) from the section counts at every twist from the
    degree cap -(z spread + 1) up to 0, with no monotonicity assumed;
    ``counts``, when given, receives the count of every twist visited."""
    if trans.rank != 2:
        raise ValueError("splitting type is computed for rank-2 transitions")
    restricted = trans.restrict_to_zero_section()
    det = restricted.det()
    if not det.is_monomial() or det.max_exponent(U_BASE) != 0:
        raise ValueError("splitting profile needs determinant 1 over the zero section")
    cap = restricted.z_spread() + 1
    cache = {} if counts is None else counts

    def count(m):
        if m not in cache:
            cache[m] = h0_twist(restricted, m)
        return cache[m]

    if count(-cap) > 0:
        raise BoundTooSmall(f"sections persist beyond the degree cap {cap}")
    if count(0) == 0:
        raise ValueError("no sections at twist zero: determinant bookkeeping is off")
    j = max(m for m in range(cap + 1) if count(-m) > 0)
    for m in range(-j, j + 1):
        if count(m) != max(0, m + j + 1) + max(0, m - j + 1):
            raise ValueError(f"section counts do not match any split pair at twist {m}")
    return (j, -j)


def product_section_rows(trans, twist, window):
    """The rows of the section count of ``h0_twist`` at one window, built
    column by column: for each component c and degree k the basis monomial
    z^k is built anew, and each product z^(-twist) * M[r][c] * z^k is added
    term by term into rows that start at zero.  A term z^e u^m of row r
    lands in row (r, e, m), column k * rank + c, unless the V side absorbs
    it (0 <= n m - e <= window)."""
    n, rank = trans.n, trans.rank
    z_neg_twist = LaurentPoly.monomial({U_BASE: -twist})
    rows = {}
    for c in range(rank):
        for k in range(window + 1):
            basis = LaurentPoly.monomial({U_BASE: k})
            for r in range(rank):
                product = zu_matrix([[z_neg_twist * trans.entries[r][c] * basis]])[0][0]
                for (e, m), coeff in product.items():
                    if not 0 <= n * m - e <= window:
                        _add_term(rows.setdefault((r, e, m), {}), k * rank + c, coeff)
    return rows


def zu_matrix(rows):
    """A matrix of (z, u) Laurent polynomials as lists of
    {(z exponent, u exponent): Fraction} dicts."""
    out = []
    for row in rows:
        new_row = []
        for poly in row:
            if not set(poly.variables) <= {"z", "u"}:
                raise ValueError(f"entry uses variables outside (z, u): {poly}")
            terms = {}
            for exps, coeff in poly.terms.items():
                named = dict(zip(poly.variables, exps))
                terms[(named.get("z", 0), named.get("u", 0))] = Fraction(coeff)
            new_row.append(terms)
        out.append(new_row)
    return out


def _add_term(acc, key, value):
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _dict_mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            _add_term(out, (a1 + a2, b1 + b2), c1 * c2)
    return out


def _dict_matmul(x, y):
    out = []
    for row in x:
        new_row = []
        for j in range(len(y[0])):
            acc = {}
            for k, entry in enumerate(row):
                for key, c in _dict_mul(entry, y[k][j]).items():
                    _add_term(acc, key, c)
            new_row.append(acc)
        out.append(new_row)
    return out


def _dict_det(rows):
    if not rows:
        return {(0, 0): Fraction(1)}
    total = {}
    for j, head in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        for key, c in _dict_mul(head, _dict_det(minor)).items():
            _add_term(total, key, (-1) ** j * c)
    return total


def certificate_holds(n, m1, m2, u_frame, v_frame):
    """m2 * U = V * m1 over the n-collar, for dict matrices.  On the collar u
    and v are units, so U must have every term z^a u^b with a >= 0 and
    det U = c u^b; V, in overlap coordinates, every term z^a u^b with
    n b - a >= 0 (it is xi^(n b - a) v^b) and det V = c z^(n b) u^b."""
    if any(a < 0 for row in u_frame for poly in row for a, _ in poly):
        return False
    if any(n * b - a < 0 for row in v_frame for poly in row for a, b in poly):
        return False
    if not unit_determinants(n, u_frame, v_frame):
        return False
    return _dict_matmul(m2, u_frame) == _dict_matmul(v_frame, m1)


def unit_determinants(n, u_frame, v_frame):
    """det U = c u^b and det V = c z^(n b) u^b, one term each, for dict
    matrices over the n-collar."""
    det_u, det_v = _dict_det(u_frame), _dict_det(v_frame)
    if len(det_u) != 1 or len(det_v) != 1:
        return False
    ((au, _),), ((av, bv),) = det_u, det_v
    return au == 0 and av == n * bv


def product_certificate_rows(m1, m2, bound):
    """(rows, columns) of the certificate search's system m2 * B = A * m1,
    built by multiplying each frame term into each transition entry as a
    Laurent polynomial.  Rows map (row, z exponent, u exponent) to
    {column: Fraction}; columns[c] is (side, frame row, frame column,
    frame term), the V frame's terms first."""
    n, rank = m1.n, m1.rank
    monomials = list(product(range(bound + 1), range(-bound, bound + 1)))
    rows, columns = {}, []

    def add(key, value):
        _add_term(rows.setdefault(key, {}), len(columns), value)

    for i, k in product(range(rank), repeat=2):
        for alpha, beta in monomials:
            basis = LaurentPoly.monomial({"z": n * beta - alpha, "u": beta})
            for jj in range(rank):
                for (z, u), coeff in zu_matrix([[basis * m1.entries[k][jj]]])[0][0].items():
                    add((i * rank + jj, z, u), -coeff)
            columns.append(("v", i, k, basis))
    for k, jj in product(range(rank), repeat=2):
        for alpha, beta in monomials:
            basis = LaurentPoly.monomial({"z": alpha, "u": beta})
            for i in range(rank):
                for (z, u), coeff in zu_matrix([[m2.entries[i][k] * basis]])[0][0].items():
                    add((i * rank + jj, z, u), coeff)
            columns.append(("u", k, jj, basis))
    return rows, columns


def sum_built_frames(vec, columns, rank):
    """The (V, U) frame pair of a candidate vector of the certificate
    search, each entry summed one frame term at a time as a Laurent
    product and sum, in column order; ``columns`` as from
    ``product_certificate_rows``."""
    frames = {side: [[LaurentPoly.zero()] * rank for _ in range(rank)] for side in "vu"}
    for c in sorted(vec):
        side, a, b, basis = columns[c]
        frames[side][a][b] = frames[side][a][b] + basis * vec[c]
    return frames["v"], frames["u"]


def named_terms(poly):
    """A Laurent polynomial, or a scalar, as {((name, exponent), ...):
    Fraction}, zero exponents left out."""
    if not isinstance(poly, LaurentPoly):
        return {(): Fraction(poly)} if poly else {}
    return {tuple((v, e) for v, e in zip(poly.variables, exps) if e): Fraction(c)
            for exps, c in poly.terms.items()}


def laurent_product(p, q):
    """(variables, named terms) of p * q by the schoolbook product on named
    dicts; the variables are the names that survive in some term."""
    out = {}
    for t1, c1 in named_terms(p).items():
        for t2, c2 in named_terms(q).items():
            exps = dict(t1)
            for v, e in t2:
                exps[v] = exps.get(v, 0) + e
            _add_term(out, tuple(sorted((v, e) for v, e in exps.items() if e)), c1 * c2)
    return tuple(sorted({v for key in out for v, _ in key})), out


def projectively_equal_pairwise(p, q):
    """Every 2 x 2 minor of each factor pair vanishes, neither factor zero."""
    if len(p) != len(q):
        return False
    for vp, vq in zip(p, q):
        if len(vp) != len(vq) or not any(vp) or not any(vq):
            return False
        for i in range(len(vp)):
            for k in range(i + 1, len(vp)):
                if vp[i] * vq[k] != vp[k] * vq[i]:
                    return False
    return True


def picard_order(pic, a):
    """Order of class a in the Picard table: tensor a with itself until the
    trivial class comes back."""
    acc, order = a % pic.n, 1
    while acc != 0:
        acc = pic.tensor_class(acc, a)
        order += 1
    return order


class NotAPair(ValueError):
    """Collar residues that are not mutually inverse mod n."""


def dual_of_bundle_pair(n, residues):
    """Skeleton index recovered from a collar residue pair (r, -r mod n)."""
    r1, r2 = residues
    if not (0 <= r1 < n and 0 <= r2 < n):
        raise ValueError(f"residues must lie in 0..{n - 1}, got {tuple(residues)}")
    if (r1 + r2) % n != 0:
        raise NotAPair(f"residues {tuple(residues)} are not negatives mod {n}")
    return r1


class SurfaceChartPair:
    """The two-chart cover of the n-th local surface with gluing
    (xi, v) = (1/z, z^n u), rewriting expressions between the charts."""

    def __init__(self, n):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"twist parameter must be a positive integer, got {n!r}")
        self.n = n

    def to_u_side(self, p):
        """Rewrite a (xi, v) expression in (z, u) coordinates."""
        if not set(p.variables) <= {"xi", "v"}:
            raise ValueError(f"expected variables within (xi, v): {p}")
        return p.substitute({"xi": LaurentPoly.monomial({"z": -1}),
                             "v": LaurentPoly.monomial({"z": self.n, "u": 1})})

    def to_v_side(self, p):
        """Rewrite a (z, u) expression in (xi, v) coordinates."""
        if not set(p.variables) <= {"z", "u"}:
            raise ValueError(f"expected variables within (z, u): {p}")
        return p.substitute({"z": LaurentPoly.monomial({"xi": -1}),
                             "u": LaurentPoly.monomial({"xi": self.n, "v": 1})})


def diagonal(n, e1, e2):
    """The split transition diag(z^e1, z^e2)."""
    zero = LaurentPoly.zero()
    return BundleTransition(n, ((LaurentPoly.monomial({"z": e1}), zero),
                                (zero, LaurentPoly.monomial({"z": e2}))))


def closed_form(n, j):
    """The expected (description, JSON shape) of skeleton component j of the
    cotangent bundle of projective n-space, stated without any chart work."""
    if j == 0:
        return f"affine fiber of dimension {n}", {"kind": "affine_fiber", "dim": n}
    if j == n:
        return f"zero section of dimension {n}", {"kind": "zero_section", "dim": n}
    rank = n - j
    twists = ", ".join(["-1"] * rank)
    return (
        f"rank-{rank} bundle over a dimension-{j} base, fiber twists ({twists})",
        {"kind": "twisted_bundle", "base_dim": j, "rank": rank, "twists": [-1] * rank},
    )


def poly_mat_substitute(a, bindings):
    """Substitute into every entry of a matrix of Laurent polynomials."""
    return tuple(tuple(entry.substitute(bindings) for entry in row) for row in a)


def cocycle_holds(atlas, i, j, k):
    """T_ik = T_jk * T_ij on the triple overlap, T_jk rewritten from chart-j
    into chart-i coordinates: slot m of chart j is (chart-i coordinate of m)
    over (chart-i coordinate of j), and a chart's own slot is 1."""

    def coord(slot):
        return LaurentPoly.const(1) if slot == i else LaurentPoly.var(f"x{slot}")

    glue_inv = coord(j) ** -1
    in_chart_i = {f"x{m}": coord(m) * glue_inv for m in range(atlas.n + 1) if m != j}
    t_jk_in_i = poly_mat_substitute(atlas.transition(j, k), in_chart_i)
    return atlas.transition(i, k) == poly_mat_mul(t_jk_in_i, atlas.transition(i, j))


def hj_evaluate(coeffs):
    """Exact value of the minus-sign continued fraction [a1, a2, ...]."""
    if not coeffs:
        raise ValueError("empty continued fraction")
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a - 1 / value
    return value


def cone_contains(cone, v):
    """v is a nonnegative combination of the cone's two rays (Cramer's rule)."""
    (a, b), (c, d) = cone.ray1, cone.ray2
    det = a * d - b * c
    return Fraction(v[0] * d - v[1] * c, det) >= 0 and Fraction(a * v[1] - b * v[0], det) >= 0


def is_unimodular_subdivision(chain, s):
    """Consecutive rays of the resolved fan of the singularity ``s``, cone
    boundary included, span the lattice.  Rays are stored in sweep order
    from ray1, except for the weight n - 1 family (n >= 3), whose sweep runs
    from the (0, 1) side."""
    cone = chain.cone
    seq = (cone.ray1,) + chain.rays + (cone.ray2,)
    if chain.rays and s.a == s.n - 1 and s.n >= 3:
        seq = (cone.ray2,) + chain.rays + (cone.ray1,)
    return all(abs(p[0] * q[1] - p[1] * q[0]) == 1 for p, q in zip(seq, seq[1:]))
