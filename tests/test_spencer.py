import random
from fractions import Fraction

import numpy as np
import pytest

from jetmech.dynamics import Trajectory
from jetmech.errors import ReconstructionError
from jetmech.formcalc import Decomposition, VerticalOneForm, accept_user_split, d0, decompose
from jetmech.spencer import (
    assemble_with_split,
    dual_spencer,
    spencer_residual,
    total_time_derivative,
    variational_derivative,
)
from jetmech.symexpr import (
    Expr,
    SymbolKind,
    ZERO,
    acc,
    coord,
    param,
    partial,
    signal_symbol,
    sinusoid_signal,
    vel,
)
from jetmech.verify import random_expr, random_vertical_form

X, V, A = Expr.var(coord(0)), Expr.var(vel(0)), Expr.var(acc(0))
K, M, B, C, F0, A_P, B0 = (Expr.var(param(p)) for p in ("k", "m", "b", "c", "f0", "a", "b0"))
half = Fraction(1, 2)


class TestTotalTimeDerivative:
    def test_momentum_rate(self):
        assert total_time_derivative(M * V) == M * A

    def test_constant(self):
        assert total_time_derivative(C).is_zero

    def test_chain_rule(self):
        assert total_time_derivative(X**2 * V) == 2 * X * V**2 + X**2 * A

    def test_rejects_acceleration_input(self):
        with pytest.raises(ValueError):
            total_time_derivative(M * A)

    def test_signal_derivative(self):
        f = sinusoid_signal("f", 1, 2, 0)
        fe = Expr.var(signal_symbol(f))
        assert total_time_derivative(fe * X) == Expr.var(signal_symbol(f, 1)) * X + fe * V


class TestDualSpencer:
    def test_damped_driven_oscillator(self):
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        fe = Expr.var(signal_symbol(f))
        phi = VerticalOneForm((-K * X - B * V + fe,), (M * V,))
        eom = dual_spencer(phi)
        assert eom.residuals == (-K * X - B * V + fe - M * A,)
        # normalized display form: m x'' + k x + b x' - f = 0
        assert eom.normalized() == (M * A + K * X + B * V - fe,)

    def test_duffing(self):
        phi = VerticalOneForm((-A_P * X**3 - B * V,), (M * V,))
        assert dual_spencer(phi).residuals == (-A_P * X**3 - B * V - M * A,)

    def test_van_der_pol(self):
        phi = VerticalOneForm((-K * X - B0 * (X**2 - 1) * V,), (M * V,))
        expected = -K * X - B0 * X**2 * V + B0 * V - M * A
        assert dual_spencer(phi).residuals == (expected,)

    def test_affine_in_acceleration(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 3)
            phi = random_vertical_form(rng, n)
            eom = dual_spencer(phi)
            for r in eom.residuals:
                for i in range(n):
                    for j in range(n):
                        assert partial(partial(r, acc(i)), acc(j)).is_zero


class TestVariationalDerivative:
    def test_harmonic(self):
        L = Expr.const(half) * M * V**2 - Expr.const(half) * K * X**2
        assert variational_derivative(L) == (-K * X - M * A,)

    def test_zero(self):
        assert variational_derivative(ZERO, n=2) == (ZERO, ZERO)

    def test_quartic(self):
        L = Expr.const(half) * M * V**2 - Expr.const(Fraction(1, 4)) * A_P * X**4
        assert variational_derivative(L) == (-A_P * X**3 - M * A,)

    def test_matches_dual_spencer_on_exact_forms(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 3)
            L = random_expr(rng, n, with_signal=rng.random() < 0.3)
            assert (
                dual_spencer(d0(L, n=n)).residuals
                == variational_derivative(L, n=n)
            )


class TestAssembleWithSplit:
    def test_paper_style_split_matches_direct(self):
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        fe = Expr.var(signal_symbol(f))
        phi = VerticalOneForm((-K * X - B * V + fe,), (M * V,))
        L = Expr.const(half) * M * V**2 - Expr.const(half) * K * X**2
        dec = Decomposition(L, VerticalOneForm((-B * V + fe,), (ZERO,)), "user-declared")
        assert assemble_with_split(dec, phi).residuals == dual_spencer(phi).residuals

    def test_degenerate_split(self):
        rng = random.Random(29)
        phi = random_vertical_form(rng, 2)
        dec = Decomposition(ZERO, phi, "user-declared")
        assert assemble_with_split(dec, phi).residuals == dual_spencer(phi).residuals

    def test_canonical_split_anti_exact_contribution(self):
        phi = VerticalOneForm((-K * X - B * V + F0,), (M * V,))
        dec = decompose(phi)
        # D* of (b/2)(x dv - v dx) contributes exactly -b v
        anti_res = dual_spencer(dec.anti_exact).residuals
        assert anti_res == (-B * V,)
        assert assemble_with_split(dec, phi).residuals == dual_spencer(phi).residuals

    def test_bad_split_rejected(self):
        phi = VerticalOneForm((X,), (M * V,))
        dec = Decomposition(ZERO, VerticalOneForm.zero(1), "user-declared")
        with pytest.raises(ReconstructionError):
            assemble_with_split(dec, phi)

    def test_bad_split_refused_as_accept_user_split_refuses_it(self):
        # assemble_with_split checks the split through accept_user_split
        phi = VerticalOneForm((X,), (M * V,))
        L = Expr.const(Fraction(1, 2)) * M * V**2
        anti = VerticalOneForm((-X,), (ZERO,))
        with pytest.raises(ReconstructionError) as assembled:
            assemble_with_split(Decomposition(L, anti, "user-declared"), phi)
        with pytest.raises(ReconstructionError) as accepted:
            accept_user_split(L, anti, phi)
        assert assembled.value.residual == accepted.value.residual
        assert assembled.value.residual == VerticalOneForm((2 * X,), (ZERO,))
        assert str(assembled.value) == str(accepted.value)

    def test_random_split_invariance(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(1, 3)
            phi = random_vertical_form(rng, n)
            L = random_expr(rng, n)
            dec = Decomposition(L, phi - d0(L, n=n), "user-declared")
            assert assemble_with_split(dec, phi).residuals == dual_spencer(phi).residuals


class TestSympyEulerLagrange:
    """dual_spencer(d0(L)) against the Euler-Lagrange expressions
    dL/dx - d/dt dL/dx' that sympy's own calculus forms for L(t, x(t), x'(t))."""

    def test_random_lagrangians(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        order = {SymbolKind.COORD: 0, SymbolKind.VEL: 1, SymbolKind.ACC: 2}

        def to_sympy(e: Expr, paths):
            """e with x^i, x'^i and x''^i read as x_i(t) and its derivatives."""
            out = sympy.Integer(0)
            for mono, c in e.terms:
                term = sympy.Rational(c.numerator, c.denominator)
                for sym, exp in mono:
                    if sym.kind == SymbolKind.TIME:
                        base = t
                    elif sym.kind == SymbolKind.PARAM:
                        base = sympy.Symbol(sym.name)
                    else:
                        base = paths[sym.index].diff(t, order[sym.kind])
                    term *= base**exp
                out += term
            return out

        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 3)
            lagrangian = random_expr(rng, n)
            paths = [sympy.Function(f"x{i}")(t) for i in range(n)]
            L = to_sympy(lagrangian, paths)
            residuals = dual_spencer(d0(lagrangian, n=n)).residuals
            for path, residual in zip(paths, residuals):
                # sympy.euler_equations is not used: it drops an equation
                # that reduces to a constant, such as -4/3 = 0 for 4/3*t*x'
                expected = sympy.diff(L, path) - sympy.diff(sympy.diff(L, path.diff(t)), t)
                assert sympy.expand(to_sympy(residual, paths) - expected) == 0, seed


def grid_section(taus, xs, vs):
    """A hand-built Trajectory whose step is its first grid step."""
    return Trajectory(taus, xs, vs, taus[1] - taus[0])


class TestSpencerResidual:
    def test_exact_for_quadratic_prolongation(self):
        taus = np.linspace(0.0, 1.0, 101)
        section = grid_section(taus, (taus**2).reshape(-1, 1), (2 * taus).reshape(-1, 1))
        assert np.abs(spencer_residual(section)).max() <= 1e-12

    def test_unit_residual_for_broken_section(self):
        taus = np.linspace(0.0, 1.0, 101)
        section = grid_section(taus, taus.reshape(-1, 1), np.zeros((101, 1)))
        r = spencer_residual(section)
        assert np.abs(r - 1.0).max() <= 1e-12

    def test_second_order_convergence(self):
        maxima = []
        for h in (0.01, 0.005):
            taus = np.arange(0.0, 1.0 + h / 2, h)
            section = grid_section(
                taus, np.sin(taus).reshape(-1, 1), np.cos(taus).reshape(-1, 1)
            )
            maxima.append(np.abs(spencer_residual(section)).max())
        ratio = maxima[0] / maxima[1]
        assert ratio >= 3.5

    def test_requires_three_samples(self):
        taus = np.array([0.0, 0.1])
        with pytest.raises(ValueError):
            spencer_residual(grid_section(taus, taus.reshape(-1, 1), taus.reshape(-1, 1)))

    def test_nonuniform_grid_rejected(self):
        taus = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            grid_section(taus, taus.reshape(-1, 1), taus.reshape(-1, 1))

    def test_samples_are_rows_never_transposed(self):
        taus = np.linspace(0.0, 1.0, 5)
        section = grid_section(taus, taus, 2 * taus)  # 1-D: one coordinate
        assert section.xs.shape == section.vs.shape == (5, 1)
        with pytest.raises(ValueError):
            grid_section(taus, taus.reshape(1, -1), np.zeros((5, 1)))  # (1, N) row
        with pytest.raises(ValueError):
            grid_section(taus, np.zeros((5, 2)), np.zeros((5, 1)))
