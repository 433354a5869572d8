"""Action vector field, potential solving, Hamiltonian identity."""

import itertools
import random
from fractions import Fraction

import pytest

from skelcollar.exact import LaurentPoly, echelon, null_space
from skelcollar.potential import (
    Potential,
    SymplecticStructure,
    VectorField,
    action_vector_field,
    hamiltonian_residual,
    solve_potential,
    symbolic_test_field,
)

LP = LaurentPoly


def zero_field(n):
    return VectorField((LP.zero(),) * (2 * n))


def v(name):
    return LP.var(name)


def test_action_field_standard_weights():
    f = action_vector_field((1, 2, 3))
    assert f.components == (
        -v("x1"),
        -2 * v("x2"),
        -3 * v("x3"),
        v("y1"),
        2 * v("y2"),
        3 * v("y3"),
    )


def test_action_field_zero_weights_gives_zero_field():
    f = action_vector_field((0, 0, 0))
    assert f == zero_field(3)


def test_action_field_single_weight():
    f = action_vector_field((1,))
    assert f.components == (-v("x1"), v("y1"))


def test_action_field_accepts_any_weight_sequence():
    assert action_vector_field((4, 7)) == action_vector_field([Fraction(4), 7])


def test_solve_potential_standard_weights():
    for n in (1, 2, 3):
        pot = solve_potential(tuple(range(1, n + 1)), kappa=2)
        expected = v("c")
        for i in range(1, n + 1):
            expected = expected - 2 * i * v(f"x{i}") * v(f"y{i}")
        assert pot.h == expected
        assert pot.kappa == 2


def test_solve_potential_zero_field_is_constant():
    pot = solve_potential((0, 0), 2)
    assert pot.h == v("c")


def test_solve_potential_kappa_one():
    pot = solve_potential((3, 5), kappa=1)
    assert pot.h == v("c") - 3 * v("x1") * v("y1") - 5 * v("x2") * v("y2")
    assert pot.h.diff("x1") == -3 * v("y1")
    assert pot.h.diff("y2") == -5 * v("x2")


def test_solve_potential_takes_fraction_weights():
    pot = solve_potential([Fraction(1, 2), -3], 2)
    assert pot.h == v("c") - v("x1") * v("y1") + 6 * v("x2") * v("y2")


def test_residual_vanishes_symbolically():
    for n in (1, 2, 3):
        x = action_vector_field(tuple(range(1, n + 1)))
        omega = SymplecticStructure(n)
        pot = solve_potential(tuple(range(1, n + 1)), 2)
        z = symbolic_test_field(n)
        assert hamiltonian_residual(pot, x, omega, z).is_zero


def test_residual_vanishes_for_all_small_weight_vectors():
    omega = SymplecticStructure(2)
    z = symbolic_test_field(2)
    for w1, w2 in itertools.product(range(-10, 11), repeat=2):
        x = action_vector_field((w1, w2))
        pot = solve_potential((w1, w2), 2)
        assert hamiltonian_residual(pot, x, omega, z).is_zero


def test_residual_vanishes_for_sampled_weights_up_to_dimension_six():
    rng = random.Random(123)
    for n in range(3, 7):
        omega = SymplecticStructure(n)
        z = symbolic_test_field(n)
        for _ in range(5):
            w = tuple(rng.randint(-10, 10) for _ in range(n))
            x = action_vector_field(w)
            pot = solve_potential(w, 2)
            assert hamiltonian_residual(pot, x, omega, z).is_zero


def test_residual_trivial_case():
    omega = SymplecticStructure(1)
    pot = Potential(v("c"), "c", Fraction(2))
    zero = zero_field(1)
    assert hamiltonian_residual(pot, zero, omega, symbolic_test_field(1)).is_zero


def test_perturbed_coefficient_leaves_residual():
    n = 2
    x = action_vector_field(tuple(range(1, n + 1)))
    omega = SymplecticStructure(n)
    pot = solve_potential(tuple(range(1, n + 1)), 2)
    perturbed = Potential(pot.h + v("x1") * v("y1"), "c", pot.kappa)
    res = hamiltonian_residual(perturbed, x, omega, symbolic_test_field(n))
    assert not res.is_zero
    assert res == v("x1") * v("b1") + v("y1") * v("a1")


def test_symplectic_gradient_recovers_scaled_field():
    for n in (1, 2, 4):
        x = action_vector_field(tuple(range(1, n + 1)))
        pot = solve_potential(tuple(range(1, n + 1)), kappa=2)
        # the field Y with dh(Z) = omega(Y, Z) is (dh/dy_i ; -dh/dx_i)
        grad = [pot.h.diff(f"y{i}") for i in range(1, n + 1)]
        grad += [-pot.h.diff(f"x{i}") for i in range(1, n + 1)]
        assert tuple(grad) == tuple(2 * comp for comp in x.components)


def test_critical_points_are_isolated_at_origin():
    # the linear system dh = 0 in the 2n coordinates has full rank
    for n in (1, 2, 3):
        pot = solve_potential(tuple(range(1, n + 1)), 2)
        names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
        rows = {}
        for i, var in enumerate(names):
            d = pot.h.diff(var)
            rows[i] = {
                c: Fraction(d.terms.get((1,), 0)) for c, w in enumerate(names) if d.variables == (w,)
            }
        assert null_space(echelon(rows), len(names)) == []


def test_potential_validates_bilinearity():
    with pytest.raises(ValueError):
        Potential(v("c") + v("x1") ** 2, "c", Fraction(2))


def test_pairing_is_antisymmetric():
    omega = SymplecticStructure(2)
    f = symbolic_test_field(2)
    g = VectorField(
        (v("p1"), v("p2"), v("q1"), v("q2"))
    )
    assert omega.pairing(f, g) == -omega.pairing(g, f)
