"""Hamiltonian potential of the weighted circle action on the chart V_0.

Coordinates are base x_1..x_n and fiber y_1..y_n, and the symplectic form
omega pairs each x_i with its y_i.  Differentiating the action of weights
w at the identity gives the field X = (-w_i x_i ; w_i y_i); its potential
is h = c - kappa * sum w_i x_i y_i, with the free constant c kept
symbolic.  `hamiltonian_residual` certifies the one identity that defines
h, dh(Z) = kappa * omega(X, Z) for a fully symbolic field Z.  The
convention factor kappa is explicit and required; the CLI supplies 2 when
``--kappa`` is absent.  The source computations carry a factor that a
literal real expansion of the form does not produce, so the factor is a
parameter rather than a silent choice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import LaurentPoly, Record, Scalar, as_fraction

CONSTANT_SYMBOL = "c"


class Potential(Record):
    """Quadratic potential h, its free constant c, with its convention factor."""

    h: LaurentPoly
    kappa: Fraction

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("convention factor must be positive")
        body = self.h - LaurentPoly.var(CONSTANT_SYMBOL)
        if body.is_zero:
            return
        xs = [v for v in body.variables if v.startswith("x")]
        ys = [v for v in body.variables if v.startswith("y")]
        if body.homogeneous_degree(xs) != 1 or body.homogeneous_degree(ys) != 1:
            raise ValueError("potential body is not bilinear in (x, y)")


def solve_potential(weights: Sequence[Scalar], kappa: Scalar) -> Potential:
    """Potential h = c - kappa * sum_i w_i x_i y_i of the action of the given
    weights, any weights (zero and repeated ones included)."""
    kappa = as_fraction(kappa)
    h = LaurentPoly.var(CONSTANT_SYMBOL)
    for i, w in enumerate(weights, start=1):
        h = h - kappa * as_fraction(w) * LaurentPoly.var(f"x{i}") * LaurentPoly.var(f"y{i}")
    return Potential(h, kappa)


def hamiltonian_residual(pot: Potential, weights: Sequence[Scalar]) -> LaurentPoly:
    """dh(Z) - kappa * omega(X, Z) for the symbolic field Z = (a_i ; b_i) and
    the action field X of the weights; identically zero exactly when h is
    the kappa-scaled potential of X."""
    residual = LaurentPoly.zero()
    for i, w in enumerate(weights, start=1):
        x, y, a, b = (LaurentPoly.var(f"{s}{i}") for s in "xyab")
        w = as_fraction(w)
        dh = pot.h.diff(f"x{i}") * a + pot.h.diff(f"y{i}") * b
        # omega(X, Z) = X_x * Z_y - X_y * Z_x, with X_x = -w x and X_y = w y
        residual = residual + dh - pot.kappa * (-w * x * b - w * y * a)
    return residual
