"""Lattice cones, cyclic quotient singularities, and their minimal resolutions.

A cyclic quotient singularity of order n and weight a is the quotient of the
plane by the diagonal action (x, y) -> (r*x, r^a*y) with r a primitive n-th
root of unity.  Each such singularity is toric: it is cut out by a single
two-dimensional lattice cone, and blowing up along the extra rays of the
Hirzebruch-Jung subdivision produces the minimal resolution, a chain of
rational curves whose self-intersection numbers are the negatives of the
continued-fraction coefficients of n over a.  The chain's intersection
form is tridiagonal, so its leading minors are the continuants of that
continued fraction and the Sylvester test needs no matrix elimination.

Two conventions fixed here and relied on elsewhere:

* cones store their rays in counterclockwise order (positive cross product);
* cone equality is the equality of normal forms, where the normal form (N, q)
  is computed by moving ray1 to (1,0) by a unimodular map and shearing ray2
  into (-q, N) with 0 <= q < N, minimized over both orientations of the
  lattice.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .exact import Record

Vec = tuple[int, int]


class InvalidInput(ValueError):
    """Raised when numeric input violates a stated precondition."""


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, p, r) with p*a + r*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _cross(v: Vec, w: Vec) -> int:
    return v[0] * w[1] - v[1] * w[0]


def _primitive(v: Vec) -> Vec:
    g = gcd(v[0], v[1])
    if g == 0:
        raise InvalidInput("zero vector is not a ray")
    return (v[0] // g, v[1] // g)


class QuotientSingularity(Record):
    """Cyclic quotient of the plane: order n, weight a, generator (r, r^a)."""

    n: int
    a: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInput(f"order must be positive, got {self.n}")
        if self.n == 1:
            if self.a != 1:
                raise InvalidInput("the trivial group has weight 1 by convention")
            return
        if not 1 <= self.a < self.n:
            raise InvalidInput(f"weight must satisfy 1 <= a < n, got a={self.a}, n={self.n}")
        if gcd(self.a, self.n) != 1:
            raise InvalidInput(f"weight {self.a} not coprime to order {self.n}")


class Cone2D(Record):
    """Strictly convex rational cone in the plane, rays counterclockwise."""

    ray1: Vec
    ray2: Vec

    def __post_init__(self) -> None:
        if _cross(self.ray1, self.ray2) <= 0:
            raise InvalidInput("rays must be independent and counterclockwise")
        for v in (self.ray1, self.ray2):
            if gcd(v[0], v[1]) != 1:
                raise InvalidInput(f"ray {v} is not primitive")

    @property
    def rays(self) -> tuple[Vec, Vec]:
        return (self.ray1, self.ray2)

    @property
    def index(self) -> int:
        """Index of the sublattice spanned by the rays: the order n."""
        return _cross(self.ray1, self.ray2)

    def dual(self) -> "Cone2D":
        """Vectors pairing nonnegatively with the whole cone.

        Each dual ray is orthogonal to one primal ray and nonnegative on the
        other; the construction below lands in counterclockwise order and is
        an exact involution.
        """
        w1 = _primitive((self.ray2[1], -self.ray2[0]))
        w2 = _primitive((-self.ray1[1], self.ray1[0]))
        return Cone2D(w1, w2)

    def _oriented_q(self, v: Vec, w: Vec) -> int:
        n = _cross(v, w)
        _, p, r = _ext_gcd(v[0], v[1])
        alpha = p * w[0] + r * w[1]
        return (-alpha) % n

    def normal_form(self) -> tuple[int, int]:
        """(N, q): ray1 moved to (1,0), ray2 sheared to (-q, N), 0 <= q < N,
        minimized over the two lattice orientations."""
        n = self.index
        q_direct = self._oriented_q(self.ray1, self.ray2)
        mirrored_first = (self.ray2[0], -self.ray2[1])
        mirrored_second = (self.ray1[0], -self.ray1[1])
        q_mirror = self._oriented_q(mirrored_first, mirrored_second)
        return (n, min(q_direct, q_mirror))

    def is_equivalent(self, other: "Cone2D") -> bool:
        return self.normal_form() == other.normal_form()


def quotient_cone(s: QuotientSingularity) -> Cone2D:
    """The cone cutting out the quotient surface of s.

    Order-n weight-1 gives rays (1,0) and (-1,n); the inverse weight n-1
    gives rays (n,1) and (0,1); the smooth case n=1 is the first quadrant.
    Other weights use the sheared template ((1,0), (-a,n)).
    """
    n, a = s.n, s.a
    if n == 1:
        return Cone2D((1, 0), (0, 1))
    if a == n - 1 and n >= 3:
        return Cone2D((n, 1), (0, 1))
    return Cone2D((1, 0), (-a, n))


def hj_expansion(n: int, q: int) -> list[int]:
    """Minus-sign continued fraction of n/q: n/q = a1 - 1/(a2 - 1/(...)).

    All coefficients are >= 2, and evaluating the expansion returns n/q
    exactly.
    """
    if not (0 < q < n) or gcd(n, q) != 1:
        raise InvalidInput(f"need 0 < q < n coprime, got n={n}, q={q}")
    out: list[int] = []
    while True:
        a = -((-n) // q)  # ceil(n / q)
        out.append(a)
        n, q = q, a * q - n
        if q == 0:
            return out


def hj_length(n: int, q: int) -> int:
    """len(hj_expansion(n, q)) in O(log n) steps: each odd-position term of the
    regular continued fraction of n/q counts 1, each even-position term c counts c - 1."""
    if not (0 < q < n) or gcd(n, q) != 1:
        raise InvalidInput(f"need 0 < q < n coprime, got n={n}, q={q}")
    length, odd = 0, True
    while q:
        length += 1 if odd else n // q - 1
        n, q, odd = q, n % q, not odd
    return length


class ResolutionChain(Record):
    """Exceptional data of the minimal resolution of a quotient singularity.

    ``rays`` are the lattice rays inserted into the cone (none when the cone
    is already smooth); ``self_intersections`` aligns with ``rays``; the
    intersection matrix is tridiagonal, with consecutive curves meeting once.
    """

    cone: Cone2D
    rays: tuple[Vec, ...]
    self_intersections: tuple[int, ...]

    @property
    def intersection_matrix(self) -> tuple[tuple[int, ...], ...]:
        k = len(self.rays)
        return tuple(
            tuple(
                self.self_intersections[i] if i == j else (1 if abs(i - j) == 1 else 0)
                for j in range(k)
            )
            for i in range(k)
        )


def minimal_resolution(s: QuotientSingularity) -> ResolutionChain:
    """Hirzebruch-Jung subdivision of the quotient cone.

    Rays follow the three-term recurrence u(k+1) = a_k*u(k) - u(k-1) seeded
    by the smooth corner basis, so consecutive pairs are automatically
    unimodular; the coefficients a_k are exactly hj_expansion(n, a).
    """
    cone = quotient_cone(s)
    n, a = s.n, s.a
    if n == 1:
        return ResolutionChain(cone, (), ())
    coeffs = hj_expansion(n, a)
    chain = [(1, 0), (0, 1)]
    for c in coeffs:
        prev, cur = chain[-2], chain[-1]
        chain.append((c * cur[0] - prev[0], c * cur[1] - prev[1]))
    if chain[-1] != (-a, n):
        raise AssertionError("recurrence did not close up on the far ray")
    interior = chain[1:-1]
    if a == n - 1 and n >= 3:
        # move from template coordinates into the stored cone ((n,1),(0,1))
        interior = [(y, x + y) for (x, y) in interior]
    return ResolutionChain(cone, tuple(interior), tuple(-c for c in coeffs))


class DynkinGraph(Record):
    """Dual graph of the exceptional curves: one vertex per curve, an edge
    where two curves meet."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def is_path(self) -> bool:
        k = len(self.vertices)
        return self.edges == tuple((i, i + 1) for i in range(k - 1))


def dynkin_dual_graph(chain: ResolutionChain) -> DynkinGraph:
    m = chain.intersection_matrix
    k = len(m)
    edges = tuple(
        (i, j) for i in range(k) for j in range(i + 1, k) if m[i][j] == 1
    )
    return DynkinGraph(tuple(range(k)), edges)


def leading_principal_minors(self_intersections: Sequence[int]) -> list[int]:
    """Leading principal minors D_1..D_r of a chain's intersection matrix,
    given its ``self_intersections`` s_1..s_r.

    The matrix is tridiagonal with s_k on the diagonal and 1 beside it, so
    expanding along the last row gives the continuants
    D_k = s_k*D_(k-1) - D_(k-2) from D_0 = 1, D_(-1) = 0.  For a minimal
    resolution s_k = -b_k and D_r = (-1)^r * n.
    """
    minors = []
    before, current = 0, 1
    for s in self_intersections:
        before, current = current, s * current - before
        minors.append(current)
    return minors


def is_negative_definite(self_intersections: Sequence[int]) -> bool:
    """Sylvester test on a chain's intersection form: the k-th leading
    principal minor has sign (-1)^k."""
    for k, minor in enumerate(leading_principal_minors(self_intersections), start=1):
        if (minor > 0) != (k % 2 == 0) or minor == 0:
            return False
    return True
