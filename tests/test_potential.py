"""Potential solving and the Hamiltonian identity dh(Z) = kappa * omega(X, Z)."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelcollar.exact import LaurentPoly, echelon, null_space
from skelcollar.potential import CONSTANT_SYMBOL, Potential, hamiltonian_residual, solve_potential

LP = LaurentPoly


def v(name):
    return LP.var(name)


def action_field(weights):
    """The action field X read off the residual of the constant potential,
    which is -omega(X, Z) = sum_i X_y_i a_i - X_x_i b_i: x components, then y."""
    res = hamiltonian_residual(Potential(v(CONSTANT_SYMBOL), Fraction(1)), weights)
    n = len(weights)
    return tuple(-res.diff(f"b{i}") for i in range(1, n + 1)) + tuple(
        res.diff(f"a{i}") for i in range(1, n + 1)
    )


def test_action_field_standard_weights():
    assert action_field((1, 2, 3)) == (
        -v("x1"),
        -2 * v("x2"),
        -3 * v("x3"),
        v("y1"),
        2 * v("y2"),
        3 * v("y3"),
    )


def test_action_field_zero_weights_gives_zero_field():
    assert action_field((0, 0, 0)) == (LP.zero(),) * 6
    assert hamiltonian_residual(solve_potential((0, 0, 0), 2), (0, 0, 0)).is_zero


def test_action_field_single_weight():
    assert action_field((1,)) == (-v("x1"), v("y1"))


def test_action_field_accepts_any_weight_sequence():
    pot = solve_potential((4, 7), 2)
    assert hamiltonian_residual(pot, (4, 7)) == hamiltonian_residual(pot, [Fraction(4), 7])
    assert action_field((4, 7)) == action_field([Fraction(4), 7])


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
        weights = tuple(range(1, n + 1))
        assert hamiltonian_residual(solve_potential(weights, 2), weights).is_zero


def test_residual_vanishes_for_all_small_weight_vectors():
    for w in itertools.product(range(-10, 11), repeat=2):
        assert hamiltonian_residual(solve_potential(w, 2), w).is_zero


def test_residual_vanishes_for_sampled_weights_up_to_dimension_six():
    rng = random.Random(123)
    for n in range(3, 7):
        for _ in range(5):
            w = tuple(rng.randint(-10, 10) for _ in range(n))
            assert hamiltonian_residual(solve_potential(w, 2), w).is_zero


def test_residual_trivial_case():
    pot = Potential(v("c"), Fraction(2))
    assert hamiltonian_residual(pot, (0,)).is_zero
    assert hamiltonian_residual(pot, ()).is_zero


def test_perturbed_coefficient_leaves_residual():
    pot = solve_potential((1, 2), 2)
    perturbed = Potential(pot.h + v("x1") * v("y1"), pot.kappa)
    res = hamiltonian_residual(perturbed, (1, 2))
    assert not res.is_zero
    assert res == v("x1") * v("b1") + v("y1") * v("a1")


_WEIGHTS = st.lists(st.integers(-10, 10), min_size=1, max_size=6)
_KAPPA = st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50)


@settings(deadline=None)
@given(weights=_WEIGHTS, kappa=_KAPPA)
def test_residual_of_the_solved_potential_is_zero(weights, kappa):
    pot = solve_potential(weights, kappa)
    assert pot.kappa == kappa
    assert hamiltonian_residual(pot, weights).is_zero


@settings(deadline=None)
@given(weights=_WEIGHTS, kappa=_KAPPA, data=st.data())
def test_an_added_bilinear_term_leaves_the_residual_it_predicts(weights, kappa, data):
    # d(q x_i y_k)(Z) = q (y_k a_i + x_i b_k), and the solved part cancels
    n = len(weights)
    i, k = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    q = data.draw(st.fractions(max_denominator=20).filter(bool))
    term = q * v(f"x{i}") * v(f"y{k}")
    pot = Potential(solve_potential(weights, kappa).h + term, kappa)
    predicted = q * (v(f"y{k}") * v(f"a{i}") + v(f"x{i}") * v(f"b{k}"))
    assert hamiltonian_residual(pot, weights) == predicted


def test_symplectic_gradient_recovers_scaled_field():
    for n in (1, 2, 4):
        weights = tuple(range(1, n + 1))
        pot = solve_potential(weights, kappa=2)
        # the field Y with dh(Z) = omega(Y, Z) is (dh/dy_i ; -dh/dx_i)
        grad = [pot.h.diff(f"y{i}") for i in range(1, n + 1)]
        grad += [-pot.h.diff(f"x{i}") for i in range(1, n + 1)]
        assert tuple(grad) == tuple(2 * comp for comp in action_field(weights))


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
        Potential(v("c") + v("x1") ** 2, Fraction(2))
    with pytest.raises(ValueError):
        solve_potential((1, 2), 0)
