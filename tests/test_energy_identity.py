"""The energy balance as an exact identity on the 2-jet space.

With the energy audit's definitions E = v^i dL/dv^i - L and
P = -dL/dt + F_a,i v^i, and R_i the dual-Spencer residuals of
phi = d0(L) + (F_a, 0), the total time derivative of E satisfies
D_t E - P = -sum_i v^i R_i. Both sides are compared as canonical
expressions, so the identity holds exactly, never to a tolerance.
"""

import random

from jetmech.dsl import preset
from jetmech.formcalc import VerticalOneForm, d0
from jetmech.spencer import dual_spencer, total_time_derivative
from jetmech.symexpr import TAU, ZERO, Expr, acc, partial, vel
from jetmech.verify import random_expr

CASES = 300


def energy_balance_sides(lagrangian: Expr, forces) -> tuple[Expr, Expr]:
    """(D_t E - P, -sum_i v^i R_i) for the split (L, (F_a, 0))."""
    n = len(forces)
    v = [Expr.var(vel(i)) for i in range(n)]
    energy = sum((partial(lagrangian, vel(i)) * v[i] for i in range(n)), ZERO) - lagrangian
    power = sum((forces[i] * v[i] for i in range(n)), -partial(lagrangian, TAU))
    phi = d0(lagrangian, n) + VerticalOneForm(tuple(forces), (ZERO,) * n)
    residuals = dual_spencer(phi).residuals
    return (
        total_time_derivative(energy) - power,
        -sum((v[i] * residuals[i] for i in range(n)), ZERO),
    )


def test_random_splits():
    nonzero = 0
    for case in range(CASES):
        rng = random.Random(case)
        n = rng.randint(1, 3)
        lagrangian = random_expr(rng, n, with_signal=rng.random() < 0.3)
        forces = [random_expr(rng, n, with_signal=rng.random() < 0.3) for _ in range(n)]
        lhs, rhs = energy_balance_sides(lagrangian, forces)
        assert lhs == rhs, f"case {case}"
        nonzero += not lhs.is_zero
        # D_t E takes a^j dE/dv^j = a^j v^i d2L/dv^i dv^j: a term both sides
        # share, so the identity alone would not see it go missing
        for j in range(n):
            hessian_row = [partial(partial(lagrangian, vel(i)), vel(j)) for i in range(n)]
            expected = sum((Expr.var(vel(i)) * hessian_row[i] for i in range(n)), ZERO)
            assert partial(lhs, acc(j)) == expected, f"case {case}"
    assert nonzero > CASES // 2  # the cases exercise the identity, not 0 == 0


def test_damped_ho_declared_split():
    system = preset("damped_ho")
    dec = system.declared_decomposition()
    assert all(e.is_zero for e in dec.anti_exact.Pi)
    lhs, rhs = energy_balance_sides(dec.lagrangian, dec.anti_exact.F)
    assert lhs == rhs and not lhs.is_zero
    assert d0(dec.lagrangian, 1) + dec.anti_exact == system.phi
