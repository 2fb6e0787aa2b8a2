import copy
import math
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import jetmech
from jetmech import symexpr
from jetmech.errors import (
    AdmissibilityError,
    DifferentiationError,
    UnboundSymbolError,
)
from jetmech.dsl import ExprContext, parse_system, text_to_expr
from jetmech.formcalc import VerticalOneForm, d0, decompose, homotopy
from jetmech.spencer import dual_spencer, variational_derivative
from jetmech.verify import random_expr
from jetmech.symexpr import (
    TAU,
    ZERO,
    Expr,
    SinusoidSignal,
    Symbol,
    SymbolKind,
    acc,
    compile_expr,
    coord,
    format_expr,
    jet_partials,
    param,
    partial,
    polynomial_signal,
    scaling_integral,
    signal_symbol,
    sinusoid_signal,
    substitute,
    vel,
)
from reference_eval import evaluate

X, V, A = coord(0), vel(0), acc(0)
K, M, B, C = param("k"), param("m"), param("b"), param("c")
half = Fraction(1, 2)


def var(s):
    return Expr.var(s)


# ---------------------------------------------------------------------------
# exact reference evaluation (independent oracle for canonicalization)
# ---------------------------------------------------------------------------


def eval_tree_exact(raw, binding):
    if isinstance(raw, tuple) and raw and isinstance(raw[0], str):
        op, *args = raw
        if op == "add":
            return sum((eval_tree_exact(a, binding) for a in args), Fraction(0))
        if op == "sub":
            return eval_tree_exact(args[0], binding) - eval_tree_exact(args[1], binding)
        if op == "mul":
            out = Fraction(1)
            for a in args:
                out *= eval_tree_exact(a, binding)
            return out
        if op == "neg":
            return -eval_tree_exact(args[0], binding)
        if op == "pow":
            return eval_tree_exact(args[0], binding) ** args[1]
        if op == "div":
            return eval_tree_exact(args[0], binding) / Fraction(args[1])
        raise AssertionError(op)
    if isinstance(raw, (int, Fraction)):
        return Fraction(raw)
    return binding[raw]


def eval_expr_exact(e, binding):
    total = Fraction(0)
    for mono, c in e.terms:
        term = c
        for sym, exp in mono:
            term *= binding[sym] ** exp
        total += term
    return total


POOL = [TAU, coord(0), coord(1), vel(0), vel(1), param("p"), param("q")]
POOL_CTX = ExprContext(coords=("x", "y"), params=frozenset({"p", "q"}))

# raw trees are test data: nested tuples ("add", a, b) ("sub", a, b)
# ("mul", a, b) ("neg", a) ("pow", a, k) over POOL symbols and rationals
leaves = st.one_of(
    st.sampled_from(POOL),
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
trees = st.recursive(
    leaves,
    lambda ch: st.one_of(
        st.tuples(st.just("add"), ch, ch),
        st.tuples(st.just("sub"), ch, ch),
        st.tuples(st.just("mul"), ch, ch),
        st.tuples(st.just("neg"), ch),
        st.tuples(st.just("pow"), ch, st.integers(0, 3)),
    ),
    max_leaves=10,
)
bindings = st.tuples(
    *[st.fractions(min_value=-3, max_value=3, max_denominator=4) for _ in POOL]
).map(lambda vals: dict(zip(POOL, vals)))


def build(raw):
    """A raw tree folded with Expr's own operators.

    Numeric leaves stay ints and Fractions, so the operators coerce them
    from either side; a tree with no symbol in it ends as a plain rational.
    """
    if isinstance(raw, tuple) and raw and isinstance(raw[0], str):
        op, *args = raw
        if op == "neg":
            return -build(args[0])
        if op == "pow":
            return build(args[0]) ** args[1]
        a, b = build(args[0]), build(args[1])
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        assert op == "mul", op
        return a * b
    if isinstance(raw, (int, Fraction)):
        return raw
    return var(raw)


def to_expr(raw) -> Expr:
    """The tree through Expr operators, as an Expr."""
    e = build(raw)
    return e if isinstance(e, Expr) else Expr.const(e)


def render(raw) -> str:
    """The tree as .mech expression text over POOL_CTX's names."""
    if isinstance(raw, tuple) and raw and isinstance(raw[0], str):
        op, *args = raw
        if op == "neg":
            return f"(-{render(args[0])})"
        if op == "pow":
            return f"({render(args[0])}^{args[1]})"
        symbol = {"add": "+", "sub": "-", "mul": "*"}[op]
        return f"({render(args[0])} {symbol} {render(args[1])})"
    if isinstance(raw, (int, Fraction)):
        q = Fraction(raw)
        return f"({q.numerator}/{q.denominator})"
    return format_expr(var(raw), POOL_CTX.coords)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


class TestNormalize:
    """Expr arithmetic and the .mech front end normalize to one canonical form."""

    def test_identity_elements(self):
        assert (var(X) + 0) * 1 == var(X)
        assert text_to_expr("(x + 0)*1", POOL_CTX) == var(X)

    def test_cancellation_gives_empty_term_set(self):
        for zero in (var(X) - var(X), text_to_expr("x - x", POOL_CTX)):
            assert zero.is_zero
            assert zero.terms == ()

    def test_square_expansion(self):
        # hand expansion: (x + v)^2 = x^2 + 2 x v + v^2
        expected = var(X) ** 2 + 2 * var(X) * var(V) + var(V) ** 2
        assert (var(X) + var(V)) ** 2 == expected
        assert text_to_expr("(x + x')^2", POOL_CTX) == expected

    @given(trees, bindings)
    def test_semantics_preserved(self, tree, binding):
        # canonical form evaluates exactly like the raw tree, in rationals,
        # whether built by Expr operators or parsed from rendered text
        want = eval_tree_exact(tree, binding)
        built = to_expr(tree)
        assert eval_expr_exact(built, binding) == want
        parsed = text_to_expr(render(tree), POOL_CTX)
        assert eval_expr_exact(parsed, binding) == want
        assert parsed == built

    def test_structural_equality_is_semantic(self):
        rng = random.Random(7)
        e1 = var(X) * var(V) + var(V) * var(X)
        e2 = 2 * (var(X) * var(V))
        assert e1 == e2
        assert text_to_expr("x*x' + x'*x", POOL_CTX) == text_to_expr("2*(x*x')", POOL_CTX) == e1
        for _ in range(100):
            binding = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for s in POOL}
            assert eval_expr_exact(e1, binding) == eval_expr_exact(e2, binding)

    def test_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            Expr.const(0.5)
        with pytest.raises(TypeError):
            var(X) + 0.25
        with pytest.raises(TypeError):
            0.5 * var(X)
        with pytest.raises(TypeError):
            substitute(var(X), {X: 0.25})


# ---------------------------------------------------------------------------
# symbols: one tuple gives equality, hash and term order
# ---------------------------------------------------------------------------

# signals that share the name "w" across both families and both phases
SHARED_NAME_SIGNALS = [
    polynomial_signal("w", 1, 2),
    polynomial_signal("w", 1, 3),
    sinusoid_signal("w", 1, 2, 0),
    SinusoidSignal("w", Fraction(1), Fraction(2), Fraction(0), cosine=True),
    polynomial_signal("u", 0, 1),
]
symbols = st.one_of(
    st.just(TAU),
    st.builds(
        Symbol,
        st.sampled_from([SymbolKind.COORD, SymbolKind.VEL, SymbolKind.ACC]),
        st.integers(0, 3),
    ),
    st.builds(param, st.sampled_from(["p", "q", "w"])),
    st.builds(signal_symbol, st.sampled_from(SHARED_NAME_SIGNALS), st.integers(0, 3)),
)


def spellings(sig, order):
    """A signal symbol with the default name and with its signal's own."""
    return (
        Symbol(SymbolKind.SIGNAL, signal=sig, order=order),
        Symbol(SymbolKind.SIGNAL, name=sig.name, signal=sig, order=order),
    )


symbol_pairs = st.one_of(
    st.tuples(symbols, symbols),
    st.builds(spellings, st.sampled_from(SHARED_NAME_SIGNALS), st.integers(0, 3)),
)


class TestSymbolOrder:
    @given(symbol_pairs)
    def test_sum_and_product_commute(self, pair):
        a, b = pair
        assert var(a) + var(b) == var(b) + var(a)
        assert var(a) * var(b) == var(b) * var(a)

    @given(symbol_pairs)
    def test_order_agrees_with_equality(self, pair):
        a, b = pair
        assert (a < b) + (a == b) + (b < a) == 1
        if a == b:
            assert hash(a) == hash(b)

    def test_kind_order_is_the_term_order(self):
        f = polynomial_signal("w", 1, 2)
        ordered = [TAU, coord(0), coord(1), vel(0), acc(0), param("a"), param("b"),
                   signal_symbol(f), signal_symbol(f, 1)]
        assert sorted(reversed(ordered)) == ordered
        assert format_expr(sum((var(s) for s in reversed(ordered)), ZERO)) == (
            "t + x + y + x' + x'' + a + b + sig(w) + dsig(w)"
        )

    def test_signal_symbol_has_one_spelling(self):
        f = polynomial_signal("w", 1, 2)
        assert Symbol(SymbolKind.SIGNAL, name="w", signal=f) == signal_symbol(f)
        assert signal_symbol(f).name == "w"
        with pytest.raises(ValueError):
            Symbol(SymbolKind.SIGNAL, index=2, signal=f)
        with pytest.raises(ValueError):
            Symbol(SymbolKind.SIGNAL, name="q", signal=f)

    def test_pickle_round_trip(self):
        for sym in (TAU, vel(2), param("k"), signal_symbol(polynomial_signal("w", 1), 2)):
            assert pickle.loads(pickle.dumps(sym)) == sym


# ---------------------------------------------------------------------------
# partial differentiation
# ---------------------------------------------------------------------------


class TestPartial:
    def test_kinetic_momentum(self):
        # d(m v^2 / 2)/dv = m v
        ke = Expr.const(half) * var(M) * var(V) ** 2
        assert partial(ke, V) == var(M) * var(V)

    def test_parameter_is_constant(self):
        assert partial(var(C), X).is_zero

    def test_power_rule(self):
        assert partial(var(X) ** 3 * var(V), X) == 3 * var(X) ** 2 * var(V)

    def test_signal_chain_rule(self):
        f = polynomial_signal("f", 1, 2)
        fe = var(signal_symbol(f))
        got = partial(var(X) * fe, TAU)
        assert got == var(X) * var(signal_symbol(f, 1))

    def test_differentiating_by_signal_rejected(self):
        f = sinusoid_signal("f", 1, 2, 0)
        with pytest.raises(DifferentiationError):
            partial(var(X), signal_symbol(f))

    @given(trees, trees)
    def test_linearity(self, t1, t2):
        e1, e2 = to_expr(t1), to_expr(t2)
        for s in (X, V, TAU):
            assert partial(e1 + e2, s) == partial(e1, s) + partial(e2, s)

    @given(trees, trees)
    def test_leibniz(self, t1, t2):
        e1, e2 = to_expr(t1), to_expr(t2)
        for s in (X, V, TAU):
            assert partial(e1 * e2, s) == partial(e1, s) * e2 + e1 * partial(e2, s)

    @given(trees)
    def test_clairaut(self, tree):
        e = to_expr(tree)
        pairs = [(X, V), (TAU, X), (coord(1), vel(1)), (TAU, V)]
        for s1, s2 in pairs:
            assert partial(partial(e, s1), s2) == partial(partial(e, s2), s1)

    def test_clairaut_with_signals(self):
        f = polynomial_signal("f", 0, 1, 1)
        e = var(X) ** 2 * var(signal_symbol(f)) + var(TAU) * var(V)
        assert partial(partial(e, TAU), X) == partial(partial(e, X), TAU)

    def test_finite_difference_agreement(self):
        rng = random.Random(42)
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        e = (
            var(K) * var(X) ** 3
            - 2 * var(X) * var(V)
            + var(TAU) ** 2 * var(V)
            + var(signal_symbol(f)) * var(X)
        )
        for _ in range(20):
            base = {
                TAU: rng.uniform(-1, 1),
                X: rng.uniform(-1, 1),
                V: rng.uniform(-1, 1),
                K: rng.uniform(0.5, 2),
            }
            for s in (X, V, TAU):
                h = 1e-6
                up = dict(base)
                dn = dict(base)
                up[s] = base[s] + h
                dn[s] = base[s] - h
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                exact = evaluate(partial(e, s), base)
                scale = max(1.0, abs(exact))
                assert abs(exact - fd) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# substitute / evaluate
# ---------------------------------------------------------------------------


class TestSubstituteEvaluate:
    def test_arithmetic_substitution(self):
        e = var(X) ** 2 + var(V)
        assert substitute(e, {X: Expr.const(2), V: Expr.const(3)}) == Expr.const(7)

    def test_empty_binding_is_identity(self):
        e = var(X) * var(V) + var(K)
        assert substitute(e, {}) == e

    def test_prolongation_substitution(self):
        e = var(X) * var(V)
        got = substitute(e, {X: var(TAU) ** 2, V: 2 * var(TAU)})
        assert got == 2 * var(TAU) ** 3

    def test_binding_values_coerce_like_arithmetic(self):
        # a Symbol, an int and a Fraction bind as Expr arithmetic reads them
        e = var(X) * var(V) + var(K)
        got = substitute(e, {X: V, V: 2, K: Fraction(1, 3)})
        assert got == 2 * var(V) + Fraction(1, 3)

    def test_signal_keys_rejected(self):
        f = polynomial_signal("f", 1)
        with pytest.raises(ValueError):
            substitute(var(X), {signal_symbol(f): Expr.const(1)})

    def test_evaluate_force_law(self):
        e = -var(K) * var(X) - var(B) * var(V)
        assert evaluate(e, {K: 1.0, B: 0.1, X: 1.0, V: 0.0}) == -1.0

    def test_evaluate_zero(self):
        assert evaluate(Expr.const(0), {}) == 0.0

    def test_evaluate_sinusoid_at_zero(self):
        f = sinusoid_signal("f", 1, 2, 0)
        assert evaluate(var(signal_symbol(f)), {TAU: 0.0}) == 0.0

    def test_evaluate_sinusoid_derivatives(self):
        f = sinusoid_signal("f", 1, 2, 0)
        t = 0.37
        vals = [
            math.sin(2 * t),
            2 * math.cos(2 * t),
            -4 * math.sin(2 * t),
            -8 * math.cos(2 * t),
            16 * math.sin(2 * t),
        ]
        for order, expected in enumerate(vals):
            got = evaluate(var(signal_symbol(f, order)), {TAU: t})
            assert abs(got - expected) < 1e-14

    def test_unbound_symbol_raises(self):
        with pytest.raises(UnboundSymbolError):
            evaluate(var(X), {})


# ---------------------------------------------------------------------------
# scaling integral
# ---------------------------------------------------------------------------


class TestScalingIntegral:
    def test_quadratic(self):
        assert scaling_integral(var(X) ** 2) == var(X) ** 2 / 3

    def test_parameter_unscaled(self):
        assert scaling_integral(var(C)) == var(C)

    def test_per_monomial(self):
        e = -var(K) * var(X) ** 2 + var(M) * var(V) ** 2
        assert scaling_integral(e) == e / 3

    def test_monomial_inverse_property(self):
        rng = random.Random(3)
        syms = [TAU, coord(0), vel(0), coord(1)]
        for _ in range(50):
            mono = Expr.const(Fraction(rng.randint(1, 5)))
            d = 0
            for _ in range(rng.randint(0, 5)):
                s = rng.choice(syms + [param("p")])
                if s.kind in (SymbolKind.COORD, SymbolKind.VEL):
                    d += 1
                mono = mono * var(s)
            assert scaling_integral(mono) * (d + 1) == mono

    @given(trees, trees)
    def test_linearity(self, t1, t2):
        e1, e2 = to_expr(t1), to_expr(t2)
        assert scaling_integral(e1 + e2) == scaling_integral(e1) + scaling_integral(e2)

    def test_time_and_signals_ride_unscaled(self):
        # only the fiber (x, v) scales; t and a sinusoid signal stay put
        f = sinusoid_signal("drive", 1, 1, 0)
        e = var(TAU) * var(signal_symbol(f)) * var(X)
        assert scaling_integral(e) == e / 2

    def test_sinusoid_rejected_with_name(self):
        # the scaling integral leaves a sinusoid alone; the homotopy built on
        # it reads the signal's admissibility and refuses it by name
        f = sinusoid_signal("drive", 1, 1, 0)
        assert not f.admissible
        assert polynomial_signal("p", 1, 2).admissible
        omega = VerticalOneForm((var(signal_symbol(f)) * var(X),), (ZERO,))
        with pytest.raises(AdmissibilityError) as err:
            homotopy(omega)
        assert err.value.signal_name == "drive"


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


class TestCompile:
    def test_matches_evaluate(self):
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), Fraction(1, 4))
        g = polynomial_signal("g", 1, -2, Fraction(1, 3))
        e = (
            var(K) * var(X) ** 2 * var(V)
            - var(TAU) * var(signal_symbol(f, 1))
            + var(signal_symbol(g)) * var(A)
        )
        fn = compile_expr(e, {"k": 1.7})
        rng = random.Random(11)
        for _ in range(25):
            t, x, v, a = (rng.uniform(-2, 2) for _ in range(4))
            binding = {TAU: t, X: x, V: v, A: a, K: 1.7}
            assert abs(fn(t, [x], [v], [a]) - evaluate(e, binding)) < 1e-12

    def test_arrays_match_reference_eval(self):
        import numpy as np

        f = sinusoid_signal("f", 1, 2, 0)
        e = var(X) * var(signal_symbol(f)) + var(V) ** 2
        fn = compile_expr(e, {})
        ts = np.linspace(0, 1, 7)
        xs = np.linspace(-1, 1, 7)
        vs = np.linspace(2, 3, 7)
        got = np.asarray(fn(ts, xs.reshape(1, -1), vs.reshape(1, -1))).ravel()
        for i in range(7):
            assert abs(got[i] - evaluate(e, {TAU: ts[i], X: xs[i], V: vs[i]})) < 1e-14

    def test_missing_parameter_raises(self):
        with pytest.raises(UnboundSymbolError):
            compile_expr(var(K) * var(X), {})

    def test_signals_compile_to_numpy(self):
        import numpy as np

        e = var(X) * var(signal_symbol(sinusoid_signal("f", 1, 2, 0)))
        fn = compile_expr(e, {})
        assert fn.__globals__["sin"] is np.sin and fn.__globals__["cos"] is np.cos

    def test_different_params_compile_apart(self):
        e = var(K) * var(X)
        one, two = compile_expr(e, {"k": 1.0}), compile_expr(e, {"k": 2.0})
        assert one is not two
        assert (one(0.0, [3.0], [0.0]), two(0.0, [3.0], [0.0])) == (3.0, 6.0)

    def test_signed_zero_params_compile_apart(self):
        # -0.0 == 0.0, but each emits its own literal and gives its own sign
        e = var(K) * var(X)
        plus, minus = compile_expr(e, {"k": 0.0}), compile_expr(e, {"k": -0.0})
        assert plus is not minus
        assert math.copysign(1.0, plus(0.0, [1.0], [0.0])) == 1.0
        assert math.copysign(1.0, minus(0.0, [1.0], [0.0])) == -1.0

    @pytest.mark.parametrize("arrays", [False, True])
    def test_negative_parameter_powers_match_evaluate(self, arrays):
        # a negative literal base is parenthesized: (-2.0)**2 is 4.0, not -(2.0**2);
        # the slots hold Python floats, as for a constant mass entry, or arrays
        import numpy as np

        e = var(K) ** 2 * var(X) - var(K) ** 3 + var(K) * var(V) ** 2 + var(K) ** 4
        for k in (-2.0, -0.5, -0.0, -1e16, 1.5):
            fn = compile_expr(e, {"k": k})
            for x, v in ((1.0, 0.5), (-3.0, 2.0)):
                slots = (np.array([x]), np.array([v])) if arrays else ([x], [v])
                got = float(np.ravel(fn(0.0, *slots))[0])
                assert got == evaluate(e, {X: x, V: v, K: k})
        square = compile_expr(var(K) ** 2, {"k": -0.0})
        assert math.copysign(1.0, float(square(0.0, [], []))) == 1.0


class TestCompileExprs:
    """``compile_exprs`` binds each distinct time-only factor to a name once;
    every value it yields is ``compile_expr``'s, bit for bit."""

    SINE = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), Fraction(1, 4))
    POLY = polynomial_signal("g", 1, -2, Fraction(1, 3))

    def exprs(self):
        t, f = var(TAU), var(signal_symbol(self.SINE))
        g, dg = var(signal_symbol(self.POLY)), var(signal_symbol(self.POLY, 1))
        return [
            t**2 * var(X) - t**3 + Fraction(1, 3) * t**4,
            -(t**3) * f + t**2 * var(V) ** 2,
            Fraction(2, 7) * t**4 * g - dg * t,
            f * var(signal_symbol(self.SINE, 1)) + g * dg - f,
            var(K) * var(X) * var(V) - var(X) ** 3,  # no t
            Expr.const(Fraction(3, 7)),  # a constant
            -var(TAU),
            t**2,
        ]

    def test_values_match_compile_expr_bitwise(self):
        import numpy as np

        params = {"k": 1.7}
        exprs = self.exprs()
        fn = symexpr.compile_exprs(exprs, params)
        ts = np.linspace(-3.0, 10.0, 1001)
        xs, vs = np.sin(ts).reshape(1, -1), np.cos(3 * ts).reshape(1, -1)
        for slots in ((ts, xs, vs), (0.7, [0.3], [-1.1]), (-2.5, [4.0], [0.0])):
            together = fn(*slots)
            for e, got in zip(exprs, together, strict=True):
                want = compile_expr(e, params)(*slots)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_each_time_factor_is_bound_once(self, monkeypatch):
        sources = []

        def recording(src, namespace):
            sources.append(src)
            exec(src, namespace)  # noqa: S102 - the source under test

        monkeypatch.setattr(symexpr, "exec", recording, raising=False)
        symexpr.compile_exprs(self.exprs(), {"k": 1.7})
        (src,) = sources
        body = [line.strip() for line in src.splitlines()[1:]]
        factors = [line.split(" = ", 1) for line in body[:-8]]
        values = " ".join(body[-8:])
        names = [name for name, _ in factors]
        # seven factors: t^2, t^3, t^4, the sine and its derivative, g and dg
        assert names == [f"T_{k}" for k in range(7)]
        assert len({factor for _, factor in factors}) == 7
        assert all(line.startswith("yield ") for line in body[-8:])
        # every factor is read by name, and no time factor is computed there
        assert "t**" not in values and "sin(" not in values and "cos(" not in values
        assert all(re.search(rf"\b{name}\b", values) for name in names)


# ---------------------------------------------------------------------------
# coefficients: an int when integral, a Fraction otherwise
# ---------------------------------------------------------------------------

POLY = polynomial_signal("g", 1, Fraction(-1, 2), Fraction(1, 3))
SINE = sinusoid_signal("s", Fraction(3, 10), Fraction(6, 5), 0)
SIGNAL_POOL = POOL + [signal_symbol(POLY), signal_symbol(POLY, 1), signal_symbol(SINE)]
signal_trees = st.recursive(
    st.one_of(
        st.sampled_from(SIGNAL_POOL),
        st.integers(-5, 5),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    ),
    lambda ch: st.one_of(
        st.tuples(st.just("add"), ch, ch),
        st.tuples(st.just("mul"), ch, ch),
        st.tuples(st.just("neg"), ch),
    ),
    max_leaves=8,
)
divisors = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
)


def assert_canonical(e: Expr):
    """Sorted distinct monomials of sorted distinct factors, nonzero
    coefficients, and an int for every integral coefficient."""
    monos = [mono for mono, _ in e.terms]
    assert monos == sorted(set(monos))
    for mono, c in e.terms:
        syms = [sym for sym, _ in mono]
        assert syms == sorted(set(syms)) and all(exp > 0 for _, exp in mono)
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


class TestCoefficients:
    @given(trees, trees, divisors, st.integers(0, 3))
    def test_arithmetic(self, t1, t2, q, k):
        e1, e2 = to_expr(t1), to_expr(t2)
        for e in (e1 + e2, e1 - e2, e1 * e2, -e1, e1**k, e1 / q, e1 * q, q + e1):
            assert_canonical(e)

    @given(signal_trees)
    def test_partial(self, tree):
        e = to_expr(tree)
        for s in (TAU, X, V, K):
            assert_canonical(partial(e, s))

    @given(signal_trees, trees, divisors)
    def test_substitute(self, tree, value, q):
        e = to_expr(tree)
        assert_canonical(substitute(e, {X: to_expr(value), V: q, K: 2, TAU: half}))

    @given(signal_trees)
    def test_scaling_integral(self, tree):
        # sinusoids ride unscaled here; only the homotopy refuses them
        e = to_expr(tree)
        for weight in (0, 1, 2):
            assert_canonical(scaling_integral(e, weight))

    @given(trees)
    def test_text_to_expr(self, tree):
        assert_canonical(text_to_expr(render(tree), POOL_CTX))

    def test_explicit_cases(self):
        two = Expr.const(Fraction(4, 2))
        assert two.terms == (((), 2),)
        assert type(two.terms[0][1]) is int
        third = (var(X) / 3).terms[0][1]
        assert third == Fraction(1, 3) and type(third) is Fraction
        assert (var(X) / 2) * 2 == var(X)
        assert type(((var(X) / 2) * 2).terms[0][1]) is int
        assert type(var(X).terms[0][1]) is int
        assert type(scaling_integral(var(X) ** 2 * 3).terms[0][1]) is int
        assert text_to_expr("x*4/2", POOL_CTX).terms == ((((X, 1),), 2),)

    def test_signal_arguments_are_canonical(self):
        assert POLY.coeffs == (1, Fraction(-1, 2), Fraction(1, 3))
        assert type(POLY.coeffs[0]) is int
        assert type(polynomial_signal("h", Fraction(6, 3)).coeffs[0]) is int
        assert type(SINE.phase) is int and type(SINE.amplitude) is Fraction


# ---------------------------------------------------------------------------
# signals: equality and hashing by name and exact arguments
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def as_int_when_integral(q: Fraction):
    return q.numerator if q.denominator == 1 else q


class TestSignalHash:
    @given(st.lists(rationals, min_size=1, max_size=4), st.integers(0, 3))
    def test_polynomial_spellings_agree(self, coeffs, order):
        a = polynomial_signal("w", *coeffs)
        b = polynomial_signal("w", *map(as_int_when_integral, coeffs))
        assert a == b and hash(a) == hash(b)
        sa, sb = signal_symbol(a, order), signal_symbol(b, order)
        assert sa == sb and hash(sa) == hash(sb)
        assert var(sa) + var(sb) == 2 * var(sa)

    @given(rationals, rationals, rationals, st.booleans())
    def test_sinusoid_spellings_agree(self, amplitude, omega, phase, cosine):
        args = (amplitude, omega, phase)
        a = SinusoidSignal("w", *args, cosine=cosine)
        b = SinusoidSignal("w", *map(as_int_when_integral, args), cosine=cosine)
        assert a == b and hash(a) == hash(b)
        assert hash(signal_symbol(a)) == hash(signal_symbol(b))

    def test_shape_holds_int_pairs(self):
        assert POLY.shape == ("poly", ((1, 1), (-1, 2), (1, 3)))
        assert SINE.shape == ("sin", (3, 10), (6, 5), (0, 1), False)
        assert signal_symbol(POLY, 2).shape is POLY.shape

    def test_pickled_symbol_found_under_another_hash_seed(self, tmp_path):
        # a hash cached at construction would travel in the pickle and
        # disagree with the str hashes of the loading process
        src = str(Path(jetmech.__file__).resolve().parent.parent)
        dump = (
            "import pickle, sys\n"
            "from fractions import Fraction\n"
            "from jetmech.symexpr import polynomial_signal, signal_symbol, sinusoid_signal\n"
            "syms = [signal_symbol(polynomial_signal('w', 1, Fraction(-1, 2)), 1),\n"
            "        signal_symbol(sinusoid_signal('f', Fraction(3, 10), 2, 0))]\n"
            "sys.stdout.buffer.write(pickle.dumps(syms))\n"
        )
        load = (
            "import pickle, sys\n"
            "from fractions import Fraction\n"
            "from jetmech.symexpr import polynomial_signal, signal_symbol, sinusoid_signal\n"
            "fresh = [signal_symbol(polynomial_signal('w', 1, Fraction(-1, 2)), 1),\n"
            "         signal_symbol(sinusoid_signal('f', Fraction(3, 10), 2, 0))]\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "assert loaded == fresh\n"
            "assert all(s in set(fresh) for s in loaded)\n"
            "table = {s: i for i, s in enumerate(fresh)}\n"
            "assert [table[s] for s in loaded] == [0, 1]\n"
            "assert all(hash(a) == hash(b) for a, b in zip(loaded, fresh))\n"
        )

        def run(code, seed, data=b""):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", code], input=data, env=env, capture_output=True
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        run(load, 2, run(dump, 1))


# ---------------------------------------------------------------------------
# an expression keeps its symbols, hash and vertical partials, and a pickle
# or copy carries none of them
# ---------------------------------------------------------------------------


def kept_expr():
    w = polynomial_signal("w", 1, Fraction(-1, 2))
    return var(K) * var(X) ** 2 + Fraction(1, 3) * var(TAU) * var(signal_symbol(w, 1))


class TestKeptSymbolsAndHash:
    def test_symbols_are_built_once(self):
        e = kept_expr()
        syms = e.symbols()
        assert isinstance(syms, frozenset) and e.symbols() is syms
        assert {s.kind for s in syms} == {
            SymbolKind.PARAM, SymbolKind.COORD, SymbolKind.TIME, SymbolKind.SIGNAL
        }
        assert hash(e) == hash(kept_expr()) == hash(e.terms)

    def test_hash_is_computed_once(self, monkeypatch):
        calls = []
        original = Fraction.__hash__

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        e = kept_expr()
        first = hash(e)
        assert calls == [Fraction(1, 3)]  # the one Fraction coefficient
        assert hash(e) == first and {e: 1}[e] == 1
        assert len(calls) == 1

    def test_jet_symbols_and_parameters_are_shared(self):
        assert coord(2) is coord(2) and vel(2) is vel(2) and acc(2) is acc(2)
        assert param("k") is param("k") is K

    def test_pickle_carries_neither_hash_nor_symbols(self):
        # nor the kept partials: a pickle or copy carries the terms alone
        used = kept_expr()
        hash(used), used.symbols(), jet_partials(used, with_time=False)
        assert pickle.dumps(used) == pickle.dumps(kept_expr())
        hash(ZERO), ZERO.symbols(), jet_partials(ZERO, with_time=False)
        assert pickle.dumps(ZERO) == pickle.dumps(Expr())
        for e in (used, ZERO):
            kept = jet_partials(e, with_time=False)
            for clone in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
                assert clone == e and hash(clone) == hash(e) and clone.symbols() == e.symbols()
                parts = jet_partials(clone, with_time=False)
                assert parts is not kept and parts == kept

    def test_vertical_partials_are_kept(self):
        e = kept_expr() + var(K) * var(V) ** 3 * var(X)
        parts = jet_partials(e, with_time=False)
        assert jet_partials(e, with_time=False) is parts
        assert parts == {X: partial(e, X), V: partial(e, V)}
        # the partials with time are taken afresh on each call
        every = jet_partials(e)
        assert every is not jet_partials(e)
        assert every == {**parts, TAU: partial(e, TAU)}

    def test_d0_and_variational_derivative_cold_and_warm(self):
        def typed(exprs):
            return [[(m, c.__class__, c) for m, c in e.terms] for e in exprs]

        rng = random.Random("kept partials")
        for case in range(300):
            n = rng.randint(1, 3)
            e = random_expr(rng, n, with_signal=rng.random() < 0.3)
            width = rng.choice((None, n, n + 1))
            form = d0(Expr(e.terms), width)
            want_d0 = typed((*form.F, *form.Pi))
            want_el = typed(variational_derivative(Expr(e.terms), width))
            warm = Expr(e.terms)
            parts = jet_partials(warm, with_time=False)
            held = list(parts.items())
            for _ in range(2):
                form = d0(warm, width)
                assert typed((*form.F, *form.Pi)) == want_d0, case
                assert typed(variational_derivative(warm, width)) == want_el, case
            # the callers leave the kept map as it was
            assert jet_partials(warm, with_time=False) is parts
            assert len(parts) == len(held) and all(parts[s] is p for s, p in held)

    def test_pickled_expr_is_a_dict_key_under_another_hash_seed(self):
        # a kept hash would travel in the pickle and disagree with the str
        # and signal hashes of the loading process
        src = str(Path(jetmech.__file__).resolve().parent.parent)
        build = (
            "import pickle, sys\n"
            "from fractions import Fraction\n"
            "from jetmech.symexpr import TAU, Expr, coord, param, polynomial_signal, signal_symbol\n"
            "w = polynomial_signal('w', 1, Fraction(-1, 2))\n"
            "e = (Expr.var(param('k')) * Expr.var(coord(0)) ** 2\n"
            "     + Fraction(1, 3) * Expr.var(TAU) * Expr.var(signal_symbol(w, 1)))\n"
        )
        dump = build + (
            "table = {e: 'dumped'}\n"
            "assert e.symbols() and table[e] == 'dumped'\n"
            "sys.stdout.buffer.write(pickle.dumps(e))\n"
        )
        load = build + (
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "table = {e: 'local'}\n"
            "assert table[loaded] == 'local'\n"
            "table[loaded] = 'loaded'\n"
            "assert table == {e: 'loaded'} and hash(loaded) == hash(e)\n"
            "assert loaded.symbols() == e.symbols()\n"
        )

        def run(code, seed, data=b""):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", code], input=data, env=env, capture_output=True
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        run(load, 12345, run(dump, 0))

    def test_partial_by_an_absent_symbol_visits_no_term(self, monkeypatch):
        visited = []
        original = symexpr._power_rule

        def counting(e, s):
            visited.append(s)
            return original(e, s)

        monkeypatch.setattr(symexpr, "_power_rule", counting)
        e = var(K) * var(X) ** 2 + var(V)
        assert partial(e, A) is ZERO and partial(e, coord(1)) is ZERO
        assert partial(e, TAU) is ZERO and partial(e, C) is ZERO
        assert visited == []
        # with no t but a signal, the time derivative still applies the chain rule
        w = polynomial_signal("w", 0, 1)
        driven = var(X) * var(signal_symbol(w))
        assert partial(driven, TAU) == var(X) * var(signal_symbol(w, 1))
        assert visited
        with pytest.raises(DifferentiationError):
            partial(ZERO, signal_symbol(w))


# ---------------------------------------------------------------------------
# the hot path hashes no Fraction
# ---------------------------------------------------------------------------

DRIVEN = """
system "driven" {
  parameter m = 2
  parameter k = 3/2
  coordinate x
  coordinate y
  signal w = polynomial(1/2, -1/4, 1/8)
  force x: -k*x + x*y^2/3 + sig(w)*y
  force y: -k*y + x^2*y/3 - t*sig(w)/5
  momentum x: m*x' + y*x'/2
  momentum y: m*y'
}
"""


def test_parse_decompose_derive_hash_no_fraction(monkeypatch):
    calls = []
    original = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    assert hash(Fraction(1, 3)) and len(calls) == 1  # the counter is live
    calls.clear()
    system = parse_system(DRIVEN)
    dec = decompose(system.phi)
    eom = dual_spencer(system.phi)
    assert not dec.lagrangian.is_zero and eom.n == 2
    assert calls == []
