import random
from fractions import Fraction

import pytest

from jetmech.errors import AdmissibilityError, ReconstructionError
from jetmech.formcalc import (
    TwoForm,
    VerticalOneForm,
    accept_user_split,
    d0,
    d1,
    decompose,
    format_one_form,
    homotopy,
    homotopy_two_form,
    reconstruction_residual,
)
from jetmech.symexpr import (
    TAU,
    Expr,
    SymbolKind,
    ZERO,
    acc,
    coord,
    param,
    polynomial_signal,
    scaling_integral,
    signal_symbol,
    sinusoid_signal,
    vel,
)
from jetmech.verify import random_expr, random_vertical_form
from reference_ops import interior_radius

X, V = Expr.var(coord(0)), Expr.var(vel(0))
K, M, B, C, F0 = (Expr.var(param(p)) for p in ("k", "m", "b", "c", "f0"))
half = Fraction(1, 2)


class TestD0:
    def test_oscillator_differential(self):
        L = -Expr.const(half) * K * X**2 + Expr.const(half) * M * V**2
        out = d0(L)
        assert out.F == (-K * X,)
        assert out.Pi == (M * V,)

    def test_constant_parameter(self):
        out = d0(C)
        assert out.F[0].is_zero and out.Pi[0].is_zero

    def test_product_and_chain_rule(self):
        f = polynomial_signal("f", 1, 1)
        fe = Expr.var(signal_symbol(f))
        out = d0(X * fe)
        assert out.F == (fe,)
        assert out.Pi == (ZERO,)

    def test_acceleration_rejected(self):
        with pytest.raises(ValueError):
            d0(Expr.var(acc(0)))

    @pytest.fixture
    def checks(self, monkeypatch):
        """The one-forms that run the public constructor's check."""
        seen = []
        check = VerticalOneForm.__post_init__
        monkeypatch.setattr(
            VerticalOneForm, "__post_init__", lambda form: seen.append(form) or check(form)
        )
        return seen

    def test_indices_below_n_skip_the_check(self, checks):
        Y = Expr.var(coord(1))
        e = K * X**2 * Y + M * V * Expr.var(vel(1))
        for n in (None, 2, 3):
            out = d0(e, n)
            assert checks == []
            assert out.n == (n or 2)
            assert out == VerticalOneForm(out.F, out.Pi)
            checks.clear()

    def test_index_at_or_above_n_is_checked(self, checks):
        X2 = Expr.var(coord(2))
        with pytest.raises(ValueError, match="coordinate index >= n"):
            d0(X * X2, n=2)
        # the partials of x2 alone by x0 and x1 vanish, so the form is valid
        out = d0(X2, n=2)
        assert all(e.is_zero for e in (*out.F, *out.Pi))
        assert len(checks) == 2


class TestD1:
    def test_damped_driven_remainder(self):
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        phi_o = VerticalOneForm((-B * V + Expr.var(signal_symbol(f)),), (ZERO,))
        eta = d1(phi_o)
        expected = TwoForm.from_dict(
            {
                (TAU, coord(0)): Expr.var(signal_symbol(f, 1)),
                (coord(0), vel(0)): B,
            }
        )
        assert eta == expected
        assert not eta.is_zero  # not closed, so it cannot be exact

    def test_x_dv(self):
        eta = d1(VerticalOneForm((ZERO,), (X,)))
        assert eta == TwoForm.from_dict({(coord(0), vel(0)): Expr.const(1)})

    def test_differential_of_exact_is_time_block_only(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 3)
            e = random_expr(rng, n, with_signal=rng.random() < 0.4)
            eta = d1(d0(e, n=n))
            # no dx^dx, dx^dv or dv^dv coefficient
            assert all(b1 == TAU for (b1, _), _ in eta.coeffs)

    def test_time_free_exact_form_is_closed(self):
        L = -Expr.const(half) * K * X**2 + Expr.const(half) * M * V**2
        assert d1(d0(L)).is_zero

    def test_antisymmetry_access(self):
        eta = d1(VerticalOneForm((ZERO,), (X,)))
        assert eta.coefficient(vel(0), coord(0)) == Expr.const(-1)
        assert eta.coefficient(coord(0), coord(0)).is_zero


class TestInteriorRadius:
    def test_oscillator(self):
        omega = VerticalOneForm((-K * X,), (M * V,))
        assert interior_radius(omega) == -K * X**2 + M * V**2

    def test_zero(self):
        assert interior_radius(VerticalOneForm.zero(2)).is_zero

    def test_signal_component(self):
        f = polynomial_signal("f", 1, 2)
        fe = Expr.var(signal_symbol(f))
        assert interior_radius(VerticalOneForm((fe,), (ZERO,))) == fe * X


def reference_homotopy(omega: VerticalOneForm) -> Expr:
    """The homotopy as a loop over components: each component integrated
    along the fiber ray with weight 0, times its own fiber coordinate."""
    out = ZERO
    for b, e in omega.components():
        out = out + scaling_integral(e) * Expr.var(b)
    return out


class TestHomotopy:
    def test_recovers_oscillator_lagrangian(self):
        omega = VerticalOneForm((-K * X,), (M * V,))
        expected = -Expr.const(half) * K * X**2 + Expr.const(half) * M * V**2
        assert homotopy(omega) == expected

    def test_zero(self):
        assert homotopy(VerticalOneForm.zero(1)).is_zero

    def test_matches_the_per_component_loop(self):
        # the contraction integrated with weight -1 is the same canonical
        # Expr, coefficient types included, on forms with time and
        # polynomial signals
        rng = random.Random(19)
        for _ in range(2000):
            phi = random_vertical_form(rng, rng.randint(1, 3))
            got, want = homotopy(phi), reference_homotopy(phi)
            assert got == want, phi
            assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]

    def test_monomial(self):
        assert homotopy(VerticalOneForm((X**2,), (ZERO,))) == X**3 / 3

    def test_left_inverse_of_d_on_fiber_polynomials(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 3)
            e = random_expr(rng, n, with_signal=rng.random() < 0.3)
            # remove the part constant along the fiber: H inverts d only
            # up to functions of t alone
            fiber_free = {coord(i): ZERO for i in range(n)}
            fiber_free.update({vel(i): ZERO for i in range(n)})
            from jetmech.symexpr import substitute

            e = e - substitute(e, fiber_free)
            assert homotopy(d0(e, n=n)) == e

    def test_vanishes_at_fiber_origin(self):
        rng = random.Random(13)
        from jetmech.symexpr import substitute

        for _ in range(30):
            n = rng.randint(1, 3)
            phi = random_vertical_form(rng, n)
            L = homotopy(phi)
            at_origin = substitute(
                L,
                {**{coord(i): ZERO for i in range(n)}, **{vel(i): ZERO for i in range(n)}},
            )
            assert at_origin.is_zero

    def test_sinusoid_refused(self):
        f = sinusoid_signal("drive", 1, 1, 0)
        omega = VerticalOneForm((Expr.var(signal_symbol(f)),), (ZERO,))
        with pytest.raises(AdmissibilityError) as err:
            homotopy(omega)
        assert err.value.signal_name == "drive"


class TestSympyScalingOracle:
    """scaling_integral and homotopy against sympy's own integral
    int_0^1 s^w e(t, s x, s v) ds, on the polynomial-signal cases of the
    verify generators. Signals are opaque sympy symbols: they are not scaled."""

    @staticmethod
    def to_sympy(sympy, e: Expr, s=1):
        """e with x^i and x'^i scaled by s; t, parameters and signals not."""
        out = sympy.Integer(0)
        for mono, c in e.terms:
            term = sympy.Rational(c.numerator, c.denominator)
            for sym, exp in mono:
                if sym.kind == SymbolKind.COORD:
                    base = s * sympy.Symbol(f"x{sym.index}")
                elif sym.kind == SymbolKind.VEL:
                    base = s * sympy.Symbol(f"v{sym.index}")
                elif sym.kind == SymbolKind.SIGNAL:
                    base = sympy.Symbol(f"sig_{sym.name}_{sym.order}")
                else:
                    base = sympy.Symbol("t" if sym.kind == SymbolKind.TIME else sym.name)
                term *= base**exp
            out += term
        return out

    @staticmethod
    def over_unit_interval(sympy, integrand, s):
        """int_0^1 integrand ds from sympy's antiderivative in s."""
        antiderivative = sympy.integrate(sympy.expand(integrand), s)
        return antiderivative.subs(s, 1) - antiderivative.subs(s, 0)

    def test_scaling_integral(self):
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        for seed in range(30):
            rng = random.Random(seed)
            e = random_expr(rng, rng.randint(1, 3), with_signal=True)
            for weight in (0, 1, 2):
                integrand = s**weight * self.to_sympy(sympy, e, s)
                expected = self.over_unit_interval(sympy, integrand, s)
                got = self.to_sympy(sympy, scaling_integral(e, weight))
                assert sympy.expand(got - expected) == 0, (seed, weight)

    def test_homotopy(self):
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(1, 3)
            phi = random_vertical_form(rng, n)
            expected = sum(
                self.over_unit_interval(sympy, self.to_sympy(sympy, e, s), s)
                * self.to_sympy(sympy, Expr.var(b))
                for b, e in phi.components()
            )
            assert sympy.expand(self.to_sympy(sympy, homotopy(phi)) - expected) == 0, seed


class TestDecompose:
    def test_damped_constant_forcing(self):
        phi = VerticalOneForm((-K * X - B * V + F0,), (M * V,))
        dec = decompose(phi)
        expected_L = (
            -Expr.const(half) * K * X**2
            - Expr.const(half) * B * X * V
            + F0 * X
            + Expr.const(half) * M * V**2
        )
        assert dec.lagrangian == expected_L
        expected_anti = VerticalOneForm(
            (-Expr.const(half) * B * V,), (Expr.const(half) * B * X,)
        )
        assert dec.anti_exact == expected_anti
        assert dec.mode == "canonical-homotopy"
        assert reconstruction_residual(dec, phi).is_zero
        assert homotopy(dec.anti_exact).is_zero

    def test_exact_forms_decompose_to_themselves(self):
        L0 = -Expr.const(half) * K * X**2 + Expr.const(half) * M * V**2
        phi = d0(L0)
        dec = decompose(phi)
        assert dec.lagrangian == L0
        assert dec.anti_exact.is_zero

    def test_pure_anti_exact(self):
        phi = VerticalOneForm(
            (-Expr.const(half) * B * V,), (Expr.const(half) * B * X,)
        )
        dec = decompose(phi)
        assert dec.lagrangian.is_zero
        assert dec.anti_exact == phi

    def test_contraction_and_annulment_random(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 3)
            phi = random_vertical_form(rng, n)
            dec = decompose(phi)
            assert reconstruction_residual(dec, phi).is_zero
            assert homotopy(dec.anti_exact).is_zero
            # the remainder is the two-form homotopy of d(phi)
            assert homotopy_two_form(d1(phi), n) == dec.anti_exact

    def test_time_dependent_components(self):
        # t-dependent coefficients ride along as parameters of the fiber
        phi = VerticalOneForm((Expr.var(TAU) * X,), (ZERO,))
        dec = decompose(phi)
        assert dec.lagrangian == Expr.var(TAU) * X**2 / 2
        assert dec.anti_exact.is_zero
        assert homotopy(dec.anti_exact).is_zero


class TestUserSplit:
    def test_paper_style_split_accepted(self):
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        fe = Expr.var(signal_symbol(f))
        phi = VerticalOneForm((-K * X - B * V + fe,), (M * V,))
        L = Expr.const(half) * M * V**2 - Expr.const(half) * K * X**2
        anti = VerticalOneForm((-B * V + fe,), (ZERO,))
        dec = accept_user_split(L, anti, phi)
        assert dec.mode == "user-declared"

    def test_degenerate_split_accepted(self):
        rng = random.Random(31)
        for _ in range(10):
            phi = random_vertical_form(rng, rng.randint(1, 3))
            dec = accept_user_split(ZERO, phi, phi)
            assert dec.anti_exact == phi

    def test_rejection_reports_residual(self):
        phi = VerticalOneForm((X,), (M * V,))
        L = Expr.const(half) * M * V**2
        with pytest.raises(ReconstructionError) as err:
            accept_user_split(L, VerticalOneForm.zero(1), phi)
        assert err.value.residual == VerticalOneForm((X,), (ZERO,))
        assert "x" in str(err.value)


class TestValidation:
    def test_acceleration_components_rejected(self):
        with pytest.raises(ValueError):
            VerticalOneForm((Expr.var(acc(0)),), (ZERO,))

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VerticalOneForm((Expr.var(coord(1)),), (ZERO,))

    def test_arithmetic_results_are_not_rechecked(self, monkeypatch):
        # the sum, difference and negation of valid forms of one n are
        # valid by construction; only public construction runs the check
        rng = random.Random(5)
        a, b = random_vertical_form(rng, 3), random_vertical_form(rng, 3)
        checked = []
        original = VerticalOneForm.__post_init__

        def counting(self):
            checked.append(self)
            original(self)

        monkeypatch.setattr(VerticalOneForm, "__post_init__", counting)
        results = [a + b, a - b, -a]
        assert checked == []
        expected = [
            ([x + y for x, y in zip(a.F, b.F)], [x + y for x, y in zip(a.Pi, b.Pi)]),
            ([x - y for x, y in zip(a.F, b.F)], [x - y for x, y in zip(a.Pi, b.Pi)]),
            ([-x for x in a.F], [-x for x in a.Pi]),
        ]
        for got, (F, Pi) in zip(results, expected):
            built = VerticalOneForm(tuple(F), tuple(Pi))
            assert got == built and hash(got) == hash(built)
        assert len(checked) == 3
        with pytest.raises(ValueError, match="dimension mismatch"):
            a + VerticalOneForm.zero(2)

    def test_format_one_form(self):
        phi = VerticalOneForm((-B * V,), (M * V,))
        assert format_one_form(phi) == "(-b*x') dx + (m*x') dx'"
