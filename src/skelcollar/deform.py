"""Extension groups on the twisted surfaces by two-chart cochain algebra,
inclusion of extension classes into wider windows, and the one-parameter
families that trade splitting type against deformation.

A class for the pair (n, j) is a Laurent polynomial in (z, u) living on the
chart overlap, taken modulo everything that extends to the U chart and
everything that extends to the V chart after the transition twist by
z^(-2j).  Placing such a representative p in the off-diagonal corner of
[[z^(j+s), tau * p], [0, z^(-j-s)]] produces a family that is split at
tau = 0 and lands at tau = 1 on splitting type
min({-a : z^a u^0 is a term of p} | {j+s}).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .bundles import U_BASE, U_FIBER, BundleTransition, splitting_type, zu_terms
from .exact import LaurentPoly, Record, Scalar, as_fraction


class ClassNotGeneric(ValueError):
    """The class fails to represent a bundle of the declared splitting type."""


def _check_pair(n: int, j: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"twist parameter must be a positive integer, got {n!r}")
    if not isinstance(j, int) or j < 0:
        raise ValueError(f"splitting index must be a nonnegative integer, got {j!r}")


def ext1_basis(n: int, j: int) -> tuple[LaurentPoly, ...]:
    """Monomial basis of the extension group for the pair (n, j): the
    monomials z^a u^b with b >= 0 and n*b - 2j < a < 0, sorted by fiber
    exponent then base exponent.

    The transition twist is homogeneous in the fiber variable, so the
    coboundary span splits by fiber level.  At level b the U side covers
    the z-exponents a >= 0 and the V side, after the twist by z^(-2j),
    covers a <= n*b - 2j; the exponents strictly between are the basis,
    and none lies between once n*b > 2j - 2, so the levels stop at
    (2j - 2) // n.
    """
    _check_pair(n, j)
    return tuple(
        LaurentPoly.monomial({U_BASE: a, U_FIBER: b})
        for b in range((2 * j - 2) // n + 1)
        for a in range(n * b - 2 * j + 1, 0)
    )


class ExtClass(Record):
    """A reduced overlap representative with its coordinates relative to
    ext1_basis(n, j); no term lies in the coboundary span."""

    n: int
    j: int
    representative: LaurentPoly
    coordinates: tuple[Fraction, ...]

    @property
    def is_zero(self) -> bool:
        return self.representative.is_zero


def ext_class(n: int, j: int, p: LaurentPoly) -> ExtClass:
    """Reduce p modulo the coboundary span and record its coordinates.

    The basis covers fiber levels b up to (2j - 2) // n; above it
    n*b - 2j >= -1, so no exponent lies strictly between the V-side cut
    n*b - 2j and the U-side cut 0, and every term outside the basis is a
    coboundary."""
    _check_pair(n, j)
    if not set(p.variables) <= {U_BASE, U_FIBER}:
        raise ValueError(f"representative uses variables outside (z, u): {p}")
    if p.min_exponent(U_FIBER) < 0:
        raise ValueError("representative needs nonnegative fiber powers")
    basis = ext1_basis(n, j)
    positions: dict[tuple[int, int], int] = {}
    for i, mono in enumerate(basis):
        positions[(mono.max_exponent(U_BASE), mono.max_exponent(U_FIBER))] = i

    coords = [Fraction(0)] * len(basis)
    kept = LaurentPoly.zero()
    for a, b, coeff in zu_terms(p):
        spot = positions.get((a, b))
        if spot is not None:
            coords[spot] += coeff
            kept = kept + LaurentPoly.monomial({U_BASE: a, U_FIBER: b}, coeff)
    return ExtClass(
        n=n,
        j=j,
        representative=kept,
        coordinates=tuple(coords),
    )


def include_class(cls: ExtClass, s: int) -> ExtClass:
    """Reinterpret the same representative inside the wider (n, j+s) window.

    Widening only loosens the coboundary cuts, so every reduced term
    survives and a nonzero class stays nonzero.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError("inclusion step must be a positive integer")
    wider = ext_class(cls.n, cls.j + s, cls.representative)
    if not cls.is_zero and wider.is_zero:
        raise AssertionError("inclusion must not kill a nonzero class")
    return wider


# ---------------------------------------------------------------------------
# one-parameter families


class DeformationFamily(Record):
    """The family [[z^(j+s), tau * p], [0, z^(-j-s)]] over the parameter tau.

    ``endpoints`` holds the splitting types the builder observed and
    checked at tau = 0 and tau = 1.
    """

    n: int
    j: int
    s: int
    entry: LaurentPoly
    source: Optional[ExtClass]
    included: Optional[ExtClass]
    endpoints: Optional[tuple[int, int]] = None

    @property
    def top_exponent(self) -> int:
        return self.j + self.s

    def matrix_at(self, tau: Scalar) -> BundleTransition:
        value = as_fraction(tau)
        return BundleTransition.canonical(self.n, self.top_exponent, off=self.entry * value)

    def splitting_at(self, tau: Scalar) -> tuple[int, int]:
        return splitting_type(self.matrix_at(tau))


def deformation_family(source: ExtClass, s: int) -> DeformationFamily:
    """Build the family for a class, checking both endpoints.

    At tau = 0 the matrix is split of type j+s.  At tau = 1 the family
    lands on min({-a : z^a u^0 is a term of the class} | {j+s}); a nonzero
    class must land on j, and any other value raises ClassNotGeneric
    (reported, not repaired).  The zero class gives the split family.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError("deformation step must be a positive integer")
    included = include_class(source, s)
    family = DeformationFamily(
        n=source.n,
        j=source.j,
        s=s,
        entry=included.representative,
        source=source,
        included=included,
    )
    top = family.top_exponent
    at_zero = family.splitting_at(0)
    if at_zero != (top, -top):
        raise AssertionError("the tau = 0 member must be split")
    observed = family.splitting_at(1)
    expected = (top, -top) if source.is_zero else (source.j, -source.j)
    if observed != expected:
        raise ClassNotGeneric(
            f"class for (n={source.n}, j={source.j}) deforms to splitting "
            f"{observed[0]} at tau = 1, not {expected[0]}"
        )
    return family.replace(endpoints=(at_zero[0], observed[0]))


def index_step_family(n: int, j: int, s: int = 1) -> DeformationFamily:
    """The family stepping splitting type j+s down to j along tau.

    For j >= 1 the generic representative z^(-j) drives the family; the
    extension group at j = 0 is empty, so that step is built directly with
    a constant off-diagonal entry, which the endpoint checks validate.
    """
    _check_pair(n, j)
    if j >= 1:
        source = ext_class(n, j, LaurentPoly.monomial({U_BASE: -j}))
        return deformation_family(source, s)
    if not isinstance(s, int) or s < 1:
        raise ValueError("deformation step must be a positive integer")
    family = DeformationFamily(
        n=n,
        j=0,
        s=s,
        entry=LaurentPoly.const(1),
        source=None,
        included=None,
    )
    at_zero = family.splitting_at(0)
    if at_zero != (s, -s):
        raise AssertionError("the tau = 0 member must be split")
    at_one = family.splitting_at(1)
    if at_one != (0, 0):
        raise AssertionError("the constant entry must trivialise at tau = 1")
    return family.replace(endpoints=(at_zero[0], at_one[0]))


def family_splitting_profile(
    family: DeformationFamily, taus: Sequence[Scalar]
) -> tuple[int, ...]:
    """Splitting types along the sampled parameter values."""
    return tuple(family.splitting_at(t)[0] for t in taus)
