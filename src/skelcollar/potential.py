"""Hamiltonian potential of the weighted circle action on the chart V_0.

The symplectic form is the standard pairing of each base coordinate x_i
with its fiber coordinate y_i.  Differentiating the action at the identity
gives the diagonal field (-w_1 x_1, ..., -w_n x_n, w_1 y_1, ..., w_n y_n);
its potential is the bilinear function -kappa * sum w_i x_i y_i plus a free
constant.  The convention factor kappa is explicit and required; the CLI
supplies 2 when ``--kappa`` is absent.  The source computations carry a
factor that a literal real expansion of the form does not produce, so the
factor is a parameter rather than a silent choice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import LaurentPoly, Record, Scalar, as_fraction


def base_var(i: int) -> LaurentPoly:
    return LaurentPoly.var(f"x{i}")


def fiber_var(i: int) -> LaurentPoly:
    return LaurentPoly.var(f"y{i}")


class VectorField(Record):
    """Polynomial vector field on V_0: components along x_1..x_n, y_1..y_n."""

    components: tuple[LaurentPoly, ...]

    def __post_init__(self) -> None:
        if len(self.components) % 2 != 0:
            raise ValueError("need one component per coordinate, x's then y's")

    @property
    def n(self) -> int:
        return len(self.components) // 2

    @property
    def x_components(self) -> tuple[LaurentPoly, ...]:
        return self.components[: self.n]

    @property
    def y_components(self) -> tuple[LaurentPoly, ...]:
        return self.components[self.n :]


def symbolic_test_field(n: int) -> VectorField:
    """Fully symbolic field (a_1..a_n, b_1..b_n) for identity checking."""
    comps = [LaurentPoly.var(f"a{i}") for i in range(1, n + 1)]
    comps += [LaurentPoly.var(f"b{i}") for i in range(1, n + 1)]
    return VectorField(tuple(comps))


class SymplecticStructure(Record):
    """The standard form pairing x_i against y_i on V_0."""

    n: int

    def pairing(self, f: VectorField, g: VectorField) -> LaurentPoly:
        if f.n != self.n or g.n != self.n:
            raise ValueError("field dimension mismatch")
        acc = LaurentPoly.zero()
        for fx, fy, gx, gy in zip(
            f.x_components, f.y_components, g.x_components, g.y_components
        ):
            acc = acc + fx * gy - fy * gx
        return acc


class Potential(Record):
    """Quadratic potential h with its free constant and convention factor."""

    h: LaurentPoly
    constant_symbol: str
    kappa: Fraction

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("convention factor must be positive")
        body = self.h - LaurentPoly.var(self.constant_symbol)
        if body.is_zero:
            return
        xs = [v for v in body.variables if v.startswith("x")]
        ys = [v for v in body.variables if v.startswith("y")]
        if body.homogeneous_degree(xs) != 1 or body.homogeneous_degree(ys) != 1:
            raise ValueError("potential body is not bilinear in (x, y)")


def action_vector_field(weights: Sequence[Scalar]) -> VectorField:
    """Derivative of the action at the identity: (-w_i x_i, ..., w_i y_i, ...).

    Any weights are accepted, zero and repeated ones included."""
    w = tuple(as_fraction(x) for x in weights)
    n = len(w)
    comps = [-w[i] * base_var(i + 1) for i in range(n)]
    comps += [w[i] * fiber_var(i + 1) for i in range(n)]
    return VectorField(tuple(comps))


def solve_potential(weights: Sequence[Scalar], kappa: Scalar) -> Potential:
    """Potential h = c - kappa * sum_i w_i x_i y_i of the action of the given
    weights, c kept symbolic: dh(Z) = kappa * omega(X, Z) for every field Z,
    X the action field of the same weights, as hamiltonian_residual checks."""
    kappa = as_fraction(kappa)
    h = LaurentPoly.var("c")
    for i, w in enumerate(weights, start=1):
        h = h - kappa * as_fraction(w) * base_var(i) * fiber_var(i)
    return Potential(h, "c", kappa)


def hamiltonian_residual(
    pot: Potential, x_field: VectorField, omega: SymplecticStructure, z: VectorField
) -> LaurentPoly:
    """dh(Z) minus kappa * omega(X, Z); identically zero exactly when h is
    the kappa-scaled potential of X."""
    n = omega.n
    dh = LaurentPoly.zero()
    for i in range(1, n + 1):
        dh = dh + pot.h.diff(f"x{i}") * z.x_components[i - 1]
        dh = dh + pot.h.diff(f"y{i}") * z.y_components[i - 1]
    return dh - pot.kappa * omega.pairing(x_field, z)
