"""The energy balance as an exact identity on the 2-jet space.

With the energy audit's definitions E = v^i dL/dv^i - L and
P = -dL/dt + F_a,i v^i, and R_i the dual-Spencer residuals of
phi = d0(L) + (F_a, 0), the total time derivative of E satisfies
D_t E - P = -sum_i v^i R_i. Both sides are compared as canonical
expressions, so the identity holds exactly, never to a tolerance. A sympy
cross-check forms both sides again from L and F_a alone.
"""

import random
from fractions import Fraction

import pytest

from jetmech.dsl import preset
from jetmech.formcalc import VerticalOneForm, d0
from jetmech.spencer import dual_spencer, total_time_derivative
from jetmech.symexpr import (
    TAU,
    ZERO,
    Expr,
    PolynomialSignal,
    SymbolKind,
    acc,
    partial,
    signal_symbol,
    sinusoid_signal,
    vel,
)
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


SYMPY_CASES = 50
_SINE = sinusoid_signal("u", Fraction(3, 2), 2, Fraction(1, 3))


def test_energy_identity_against_sympy():
    """Both sides of the identity, formed again by sympy's own calculus.

    L and F_a are read term by term into sympy with x^i as x_i(t), x'^i as
    its derivative and each signal in closed form. E, P and the residuals
    R_i = dL/dx^i + F_a,i - d/dt dL/dx'^i are formed there, and
    ``sympy.diff`` takes the time derivatives, so the check shares no code
    with ``total_time_derivative``.
    """
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def closed_form(signal):
        if isinstance(signal, PolynomialSignal):
            return sum(
                (sympy.Rational(c.numerator, c.denominator) * t**k
                 for k, c in enumerate(signal.coeffs)),
                sympy.Integer(0),
            )
        angle = (sympy.Rational(signal.omega.numerator, signal.omega.denominator) * t
                 + sympy.Rational(signal.phase.numerator, signal.phase.denominator))
        amplitude = sympy.Rational(signal.amplitude.numerator, signal.amplitude.denominator)
        return amplitude * (sympy.cos(angle) if signal.cosine else sympy.sin(angle))

    def to_sympy(e: Expr, paths):
        out = sympy.Integer(0)
        for mono, c in e.terms:
            term = sympy.Rational(c.numerator, c.denominator)
            for sym, exp in mono:
                if sym.kind == SymbolKind.TIME:
                    base = t
                elif sym.kind == SymbolKind.PARAM:
                    base = sympy.Symbol(sym.name)
                elif sym.kind == SymbolKind.SIGNAL:
                    base = sympy.diff(closed_form(sym.signal), t, sym.order)
                else:
                    order = sym.kind - SymbolKind.COORD
                    base = paths[sym.index].diff(t, order) if order else paths[sym.index]
                term *= base**exp
            out += term
        return out

    nonzero = 0
    for case in range(SYMPY_CASES):
        rng = random.Random(50_000 + case)
        n = rng.randint(1, 3)
        lagrangian = random_expr(rng, n, max_degree=3, with_signal=rng.random() < 0.3)
        forces = [random_expr(rng, n, max_degree=3) for _ in range(n)]
        if rng.random() < 0.4:
            forces[0] = forces[0] + Expr.var(signal_symbol(_SINE)) * Expr.var(vel(n - 1))
        lhs, rhs = energy_balance_sides(lagrangian, forces)

        paths = [sympy.Function(f"x{i}")(t) for i in range(n)]
        velocities = [path.diff(t) for path in paths]
        L = to_sympy(lagrangian, paths)
        Fa = [to_sympy(f, paths) for f in forces]
        # explicit partials: L with x^i, x'^i and t as free symbols
        X = sympy.symbols(f"X0:{n}")
        V = sympy.symbols(f"V0:{n}")
        T = sympy.Symbol("T")
        # derivatives first, so that x_i(t) inside them is not replaced
        free_L = L.subs(dict(zip(velocities, V))).subs(dict(zip(paths, X))).subs(t, T)
        back = {**dict(zip(X, paths)), **dict(zip(V, velocities)), T: t}

        def d(symbol):
            return sympy.diff(free_L, symbol).subs(back)

        energy = sum(velocities[i] * d(V[i]) for i in range(n)) - L
        power = -d(T) + sum(Fa[i] * velocities[i] for i in range(n))
        residuals = [d(X[i]) + Fa[i] - sympy.diff(d(V[i]), t) for i in range(n)]
        want_lhs = sympy.diff(energy, t) - power
        want_rhs = -sum(velocities[i] * residuals[i] for i in range(n))

        got_lhs, got_rhs = to_sympy(lhs, paths), to_sympy(rhs, paths)
        assert sympy.expand(got_lhs - want_lhs) == 0, f"case {case}"
        assert sympy.expand(got_rhs - want_rhs) == 0, f"case {case}"
        nonzero += not lhs.is_zero
    assert nonzero > SYMPY_CASES // 2
