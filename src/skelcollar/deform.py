"""Extension groups on the twisted surfaces by two-chart cochain algebra,
and the one-parameter families that trade splitting type against
deformation.

A class for the pair (n, j) is a Laurent polynomial in (z, u) living on the
chart overlap, taken modulo everything that extends to the U chart and
everything that extends to the V chart after the transition twist by
z^(-2j).  A class is its reduced representative, the terms z^a u^b of a
polynomial with n*b - 2j < a < 0 (`ext_class`).  Widening (n, j) to
(n, j+s) only lowers the cut n*b - 2j, so a reduced representative is
already reduced in every wider window and no inclusion step is needed.
Placing a representative p in the off-diagonal corner of
[[z^(j+s), tau * p], [0, z^(-j-s)]] produces a family that is split at
tau = 0 and lands at tau = 1 on splitting type
min({-a : z^a u^0 is a term of p} | {j+s}).

Every family, from a class or from the index step with corner z^(-j), goes
through one builder that counts both endpoint splitting types; a member at
tau != 0 is conjugate to the tau = 1 member by a constant frame.
"""

from __future__ import annotations

from typing import Sequence

from .bundles import U_BASE, U_FIBER, BundleTransition, splitting_type, zu_terms
from .exact import LaurentPoly, Record, Scalar, VerificationFailed


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


def ext_class(n: int, j: int, p: LaurentPoly) -> LaurentPoly:
    """Reduce p modulo the coboundary span: keep exactly the terms z^a u^b
    with n*b - 2j < a < 0, the window ext1_basis(n, j) enumerates.

    A term with a >= 0 extends over U and one with a <= n*b - 2j is the
    twisted image of a V-side monomial, so every dropped term is a
    coboundary."""
    _check_pair(n, j)
    if not set(p.variables) <= {U_BASE, U_FIBER}:
        raise ValueError(f"representative uses variables outside (z, u): {p}")
    if p.min_exponent(U_FIBER) < 0:
        raise ValueError("representative needs nonnegative fiber powers")
    return sum((LaurentPoly.monomial({U_BASE: a, U_FIBER: b}, coeff)
               for a, b, coeff in zu_terms(p) if n * b - 2 * j < a < 0), LaurentPoly.zero())


# ---------------------------------------------------------------------------
# one-parameter families


class DeformationFamily(Record):
    """The family [[z^(j+s), tau * p], [0, z^(-j-s)]] over the parameter tau;
    ``endpoints`` holds the splitting types its builder checked at tau = 0, 1."""

    n: int
    j: int
    s: int
    entry: LaurentPoly
    endpoints: tuple[int, int]


def _family(n: int, j: int, s: int, entry: LaurentPoly, lands: int) -> DeformationFamily:
    """The family with corner ``entry``, after checking that it is split of
    type j+s at tau = 0 and has splitting type ``lands`` at tau = 1."""
    if not isinstance(s, int) or s < 1:
        raise ValueError("deformation step must be a positive integer")
    top = j + s
    at_zero = splitting_type(BundleTransition.canonical(n, top))
    if at_zero != (top, -top):
        raise VerificationFailed("the tau = 0 member must be split")
    observed = splitting_type(BundleTransition.canonical(n, top, off=entry))
    if observed != (lands, -lands):
        free = [a for a, b, _ in zu_terms(entry) if b == 0]
        if free and -max(free) <= top:
            why = f"its u-free term z^{max(free)} sets the type to {-max(free)}"
        elif free:
            why = f"its u-free terms z^a all have -a > j + s, so it stays at j + s = {top}"
        else:
            why = f"it has no u-free term, so it stays at j + s = {top}"
        raise VerificationFailed(
            f"class for (n={n}, j={j}) lands on splitting type "
            f"{observed[0]} at tau = 1, not {lands}: {why}"
        )
    return DeformationFamily(n, j, s, entry, (top, lands))


def deformation_family(n: int, j: int, p: LaurentPoly, s: int) -> DeformationFamily:
    """Build the family whose corner is the class of p in the (n, j) group,
    checking both endpoints.

    The corner is ``ext_class(n, j, p)``, the reduced representative; the
    wider (n, j+s) window keeps every one of its terms, so it is also the
    class there.  At tau = 0 the matrix is split of type j+s.  At tau = 1
    the family lands on min({-a : z^a u^0 is a term of the class} | {j+s});
    a nonzero class must land on j, and any other value raises
    VerificationFailed (reported, not repaired).  The zero class must land on
    j+s, the split family.
    """
    entry = ext_class(n, j, p)
    return _family(n, j, s, entry, j + s if entry.is_zero else j)


def index_step_family(n: int, j: int, s: int) -> DeformationFamily:
    """The family stepping splitting type j+s down to j along tau.

    Its corner is z^(-j) for every j >= 0.  For j >= 1 that monomial is its
    own nonzero class in the (n, j) group and in every wider window, and
    its u-free term sets the type to j; at j = 0 the group is empty and the
    corner is the constant 1, which trivialises the family at tau = 1.  The
    endpoint checks validate both.
    """
    _check_pair(n, j)
    return _family(n, j, s, LaurentPoly.monomial({U_BASE: -j}), j)


def family_splitting_profile(
    family: DeformationFamily, taus: Sequence[Scalar]
) -> tuple[int, ...]:
    """Splitting types at the sampled parameter values, read from the
    ``endpoints`` the builder checked: no section is counted.  The member at
    tau is D M_1 D^-1 for the constant frame D = diag(tau, 1), which is
    invertible for tau != 0, so every nonzero tau has the tau = 1 type."""
    split, landed = family.endpoints
    return tuple(landed if tau else split for tau in taus)
