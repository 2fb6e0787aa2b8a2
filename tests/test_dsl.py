import contextlib
import io
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jetmech.cli import main
from jetmech.dsl import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER,
    MAX_TIME_STEPS,
    MIN_STEP_ULPS,
    BinOp,
    DuplicateDeclarationError,
    ExprContext,
    ParseError,
    PRESETS,
    SigRef,
    SystemSpec,
    UndeclaredSymbolError,
    format_expr,
    parse_expr,
    parse_system,
    preset,
    text_to_expr,
    tokenize,
)
from jetmech.errors import MechError, ReconstructionError
from jetmech.formcalc import VerticalOneForm
from jetmech.spencer import dual_spencer
from jetmech.symexpr import (
    MAX_COEFFICIENT_DIGITS,
    MAX_TERM_PRODUCT,
    TAU,
    Expr,
    acc,
    PolynomialSignal,
    SinusoidSignal,
    ZERO,
    coord,
    param,
    polynomial_signal,
    signal_symbol,
    sinusoid_signal,
    vel,
)
from jetmech.verify import random_expr

X, V = Expr.var(coord(0)), Expr.var(vel(0))
K, M, B = Expr.var(param("k")), Expr.var(param("m")), Expr.var(param("b"))

CTX = ExprContext(
    coords=("x", "y", "z"),
    params=frozenset({"k", "m", "b", "p", "q"}),
    signals={
        "f": sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0),
        "w": polynomial_signal("w", 1, Fraction(-1, 2), Fraction(1, 3)),
    },
)


class TestParseExpr:
    def test_force_law_tree(self):
        tree = parse_expr("-k*x - b*x' + sig(f)")
        assert isinstance(tree, BinOp) and tree.op == "+"
        assert isinstance(tree.rhs, SigRef) and tree.rhs.name == "f"
        value = text_to_expr("-k*x - b*x' + sig(f)", CTX)
        f = CTX.signals["f"]
        assert value == -K * X - B * V + Expr.var(signal_symbol(f))

    def test_lagrangian_surface_form(self):
        value = text_to_expr("m*x'^2/2 - k*x^2/2", CTX)
        assert value == Expr.const(Fraction(1, 2)) * M * V**2 - Expr.const(
            Fraction(1, 2)
        ) * K * X**2

    def test_missing_operand_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x +")
        assert (err.value.line, err.value.col) == (1, 4)
        assert "expected operand" in err.value.message

    def test_precedence_and_unary_minus(self):
        assert text_to_expr("-k*x^2", CTX) == -K * X**2
        assert text_to_expr("2 + 3*4", CTX) == Expr.const(14)
        assert text_to_expr("(2 + 3)*4", CTX) == Expr.const(20)
        assert text_to_expr("-x^2", CTX) == -(X**2)

    def test_division_by_literal_only(self):
        assert text_to_expr("x/4", CTX) == X / 4
        with pytest.raises(ParseError) as err:
            parse_expr("x/y")
        assert "numeric literal" in err.value.message
        with pytest.raises(ParseError):
            parse_expr("x/0")

    def test_exponent_must_be_nonnegative_integer(self):
        with pytest.raises(ParseError):
            parse_expr("x^y")
        with pytest.raises(ParseError):
            parse_expr("x^1.5")

    def test_decimal_literals_are_exact(self):
        assert text_to_expr("1.25", CTX) == Expr.const(Fraction(5, 4))
        assert text_to_expr("1e-3", CTX) == Expr.const(Fraction(1, 1000))
        assert text_to_expr("2.5e2", CTX) == Expr.const(250)

    def test_time_reserved(self):
        assert text_to_expr("t^2", CTX) == Expr.var(TAU) ** 2
        with pytest.raises(ParseError):
            parse_expr("t'")

    def test_nested_signal_derivatives(self):
        w = CTX.signals["w"]
        assert text_to_expr("dsig(w)", CTX) == Expr.var(signal_symbol(w, 1))
        assert text_to_expr("dsig(dsig(w))", CTX) == Expr.var(signal_symbol(w, 2))

    def test_undeclared_symbol(self):
        with pytest.raises(UndeclaredSymbolError) as err:
            text_to_expr("k*q2", CTX)
        assert "q2" in str(err.value)

    def test_acceleration_allowed_only_when_permitted(self):
        assert text_to_expr("x''", ExprContext(coords=("x",))) == Expr.var(acc(0))
        with pytest.raises(ParseError):
            text_to_expr("x''", ExprContext(coords=("x",), allow_acceleration=False))

    def test_error_positions_battery(self):
        cases = [
            (parse_expr, "x +", 1, 4, "expected operand"),
            (parse_expr, "(x", 1, 3, "expected closing parenthesis"),
            (parse_expr, "x ^ y", 1, 5, "exponent must be a nonnegative integer"),
            (parse_expr, "* x", 1, 1, "expected operand"),
            (parse_expr, "x 2", 1, 3, "unexpected trailing input"),
            (parse_expr, "sig()", 1, 5, "expected signal name"),
            (parse_expr, "sig(f", 1, 6, "expected closing parenthesis in signal reference"),
            (parse_expr, "x @ 2", 1, 3, "unexpected character '@'"),
            (parse_expr, "x +\n y *", 2, 5, "expected operand"),
            # lexer: a number's '.' needs a digit after it, unless it starts '..'
            (parse_expr, "1.2.3", 1, 4, "unexpected character '.'"),
            (parse_expr, "1.", 1, 1, "malformed number"),
            (parse_expr, "1.e3", 1, 1, "malformed number"),
            (parse_expr, "1..2", 1, 2, "unexpected trailing input"),
            (parse_expr, ".", 1, 1, "unexpected character '.'"),
            (parse_expr, "x'''", 1, 1, "at most two primes are allowed"),
            (parse_expr, '"abc', 1, 1, "unterminated string"),
            # a comment ends at the newline or end of input, reported at its '#'
            (parse_expr, "x * # c", 1, 5, "expected operand"),
            (parse_system, 'system "s" {\n  parameter k = # c\n  1\n}', 2, 17,
             "expected a number"),
            (parse_system, 'system "s" {\n  coordinate x # c', 2, 16,
             "unterminated system block (missing '}')"),
            # reported at the end of input, after the whole block is read
            (parse_system, 'system "s" {\n  parameter k = 1\n}', 3, 2,
             "system declares no coordinates"),
        ]
        for parse, text, line, col, message in cases:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.col, err.value.message) == (line, col, message), text
            # position indexes a real character or one-past-end of its line
            lines = text.split("\n")
            assert 1 <= err.value.line <= len(lines)
            assert 1 <= err.value.col <= len(lines[err.value.line - 1]) + 1
        # '1..2' is a number, the range operator and a number
        assert [(t.value, t.col) for t in tokenize("1..2")] == [(1, 1), ("..", 2), (2, 4), (None, 5)]


class TestNumberLiterals:
    @pytest.mark.parametrize(
        "literal, value",
        [
            ("2", 2),
            ("2.50", Fraction(5, 2)),
            ("1e2", 100),
            ("1e-2", Fraction(1, 100)),
            ("3/4", Fraction(3, 4)),
            ("-6/3", -2),
            ("0.0", 0),
            ("2.0e-1", Fraction(1, 5)),
            ("12.5e1", 125),
        ],
    )
    def test_int_when_integral_else_fraction(self, literal, value):
        spec = parse_system(f'system "s" {{ coordinate x; parameter k = {literal} }}')
        got = spec.params["k"]
        assert got == value
        assert type(got) is (int if value.denominator == 1 else Fraction)

    def test_integer_literals_make_no_fraction(self):
        text = (
            'system "ints" { parameter m = 2; parameter k = 3; coordinate x; coordinate y\n'
            "  signal f = polynomial(1, -2, 0)\n"
            "  force x: -k*x + 4*(y - x)^2/2 + sig(f); momentum x: m*x' + y'\n"
            "  force y: -y^3 - 10*y'; momentum y: m*y'\n"
            "  init x = 1, y = -2, x' = 0, y' = 3; time 0 .. 10 step 1 }"
        )
        callers = []
        raw = Fraction.__dict__["__new__"]
        original = raw.__func__

        def counting(cls, *args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_filename)
            return original(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting)
        try:
            assert Fraction(1, 3) and len(callers) == 1  # the counter is live
            callers.clear()
            spec = parse_system(text)
        finally:
            Fraction.__new__ = raw
        assert spec.params == {"m": 2, "k": 3} and spec.time == (0.0, 10.0, 1.0)
        assert [c for c in callers if c.endswith("dsl.py")] == []


class TestFormatExpr:
    def test_oscillator_rendering(self):
        e = -K * X**2 + M * V**2
        assert format_expr(e, ("x",)) == "-k*x^2 + m*x'^2"

    def test_zero(self):
        assert format_expr(ZERO) == "0"

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(100):
            n = rng.randint(1, 3)
            e = random_expr(rng, n, with_signal=rng.random() < 0.4)
            rt_ctx = ExprContext(
                coords=("x", "y", "z")[:n],
                params=frozenset({"p", "q"}),
                signals={"w": PolynomialSignal("w", (Fraction(1), Fraction(-1, 2), Fraction(1, 3)))},
            )
            text = format_expr(e, rt_ctx.coords)
            assert text_to_expr(text, rt_ctx) == e

    def test_round_trip_signal_orders(self):
        w = CTX.signals["w"]
        e = Expr.var(signal_symbol(w, 2)) * X - Expr.const(Fraction(3, 7))
        assert text_to_expr(format_expr(e, ("x",)), CTX) == e


class TestOneTermPath:
    """A product of atoms resolves straight to one term; the parser's errors
    and bounds hold on that path as on the generic one."""

    def test_undeclared_name_after_a_product_of_atoms(self):
        head = "2*k*x^2*t*sig(w)/3*"
        with pytest.raises(UndeclaredSymbolError) as info:
            text_to_expr(head + "nope*q2", CTX)
        assert info.value.message == "undeclared symbol 'nope'"
        assert (info.value.line, info.value.col) == (1, len(head) + 1)
        with pytest.raises(UndeclaredSymbolError) as info:
            text_to_expr(head + "sig(g)", CTX)
        assert info.value.message == "undeclared signal 'g'"

    @pytest.mark.parametrize(
        "text, col, message",
        [
            ("k*x/0", 5, "division by zero"),
            ("k*x*y/0.0*t", 7, "division by zero"),
            ("x/0^2", 3, "division by zero"),
            ("k*x^1.5", 5, "exponent must be a nonnegative integer"),
            ("2*x*y^(1)", 7, "exponent must be a nonnegative integer"),
        ],
    )
    def test_literal_errors(self, text, col, message):
        with pytest.raises(ParseError) as info:
            text_to_expr(text, CTX)
        assert (info.value.col, info.value.message) == (col, message)

    @pytest.mark.parametrize(
        "text, same",
        [
            ("x/2^2", "x/4"),
            ("3/2^2*x", "3/4*x"),
            ("x^3/2^2", "x^3/4"),
            ("x/2^2^3", "x/64"),  # a run multiplies, as in x^2^3 = x^6
            ("x^10/2^100", f"x^10/{2**100}"),
            ("k*x/2^2*y^2", "k*x*y^2/4"),
            ("x/0^0", "x"),
        ],
    )
    def test_divisor_is_the_literal_raised_to_its_run(self, text, same):
        assert text_to_expr(text, CTX) == text_to_expr(same, CTX)

    def test_ten_thousand_factor_chain_does_not_recurse(self):
        # far beyond the default recursion limit of 1,000 frames
        text = "*".join(["x", "2", "k", "y'^2"] * 2500)
        e = text_to_expr(text, CTX)
        mono = ((coord(0), 2500), (vel(1), 5000), (param("k"), 2500))
        assert e.terms == ((mono, 2**2500),)

    def test_term_product_bound_through_a_parenthesized_sum(self):
        total = " + ".join(f"x^{i}" for i in range(300))
        with pytest.raises(MechError) as info:
            text_to_expr(f"2*k*t*({total})*({total})", CTX)
        assert str(info.value) == (
            f"expression too large: a product of 300 by 300 terms exceeds "
            f"MAX_TERM_PRODUCT = {MAX_TERM_PRODUCT}"
        )


DAMPED_HO_TEXT = PRESETS["damped_ho"]


class TestParseSystem:
    def test_damped_ho_block(self):
        spec = parse_system(DAMPED_HO_TEXT)
        assert spec.name == "damped_ho"
        assert spec.coords == ("x",)
        assert spec.params["b"] == Fraction(1, 10)
        f = spec.signals["f"]
        assert isinstance(f, SinusoidSignal)
        assert (f.amplitude, f.omega, f.phase) == (
            Fraction(3, 10),
            Fraction(6, 5),
            Fraction(0),
        )
        fe = Expr.var(signal_symbol(f))
        assert spec.phi == VerticalOneForm((-K * X - B * V + fe,), (M * V,))
        assert spec.init == ((1.0,), (0.0,))
        assert spec.time == (0.0, 20.0, 1e-3)

    def test_momentum_default_uses_mass_parameter(self):
        text = """
system "default-momentum" {
  parameter m = 2
  parameter k = 1
  coordinate x
  force x: -k*x
}
"""
        spec = parse_system(text)
        assert spec.phi.Pi == (M * V,)

    def test_no_mass_no_momentum_is_zero(self):
        text = 'system "massless" { parameter k = 1; coordinate x; force x: -k*x }'
        spec = parse_system(text)
        assert spec.phi.Pi == (ZERO,)

    def test_undeclared_symbol_named(self):
        text = 'system "bad" { parameter k = 1; coordinate x; force x: -k*x + q }'
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_system(text)
        assert "'q'" in str(err.value)

    def test_first_error_in_source_order_is_reported(self):
        # the undeclared coordinate comes later in the file than the symbol
        text = """system "order" {
  parameter m = 1
  coordinate x
  coordinate y
  force x: q*x
  oracle z: 1
}"""
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_system(text)
        assert (err.value.line, err.value.col) == (5, 12)
        assert err.value.message == "undeclared symbol 'q'"

    def test_duplicate_declaration(self):
        text = 'system "dup" { parameter k = 1; coordinate k; force k: 0 }'
        with pytest.raises(DuplicateDeclarationError):
            parse_system(text)

    def test_duplicate_clause(self):
        text = 'system "dup2" { coordinate x; force x: x; force x: 2*x }'
        with pytest.raises(DuplicateDeclarationError):
            parse_system(text)

    def test_reserved_names_rejected(self):
        with pytest.raises(ParseError):
            parse_system('system "r" { coordinate t }')
        with pytest.raises(ParseError):
            parse_system('system "r" { parameter sig = 1; coordinate x }')

    def test_semicolons_and_comments(self):
        text = (
            'system "compact" { parameter m = 1; coordinate x # trailing comment\n'
            "  force x: -x; momentum x: m*x' }"
        )
        spec = parse_system(text)
        assert spec.phi.F == (-X,)

    def test_polynomial_signal_and_fraction_args(self):
        text = (
            'system "poly" { parameter m = 1; coordinate x;\n'
            "  signal g = polynomial(1, -1/2, 1/3)\n"
            "  force x: sig(g) }"
        )
        spec = parse_system(text)
        g = spec.signals["g"]
        assert isinstance(g, PolynomialSignal)
        assert g.coeffs == (Fraction(1), Fraction(-1, 2), Fraction(1, 3))

    def test_acceleration_rejected_in_force(self):
        text = 'system "acc" { parameter m = 1; coordinate x; force x: x\'\' }'
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert "acceleration" in err.value.message

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_system("")

    def test_missing_brace_position(self):
        text = 'system "open" {\n  coordinate x\n'
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert err.value.line == 3

    def test_declared_split_deferred_validation(self):
        # parse succeeds; validation reports the residual on demand
        text = """
system "badsplit" {
  parameter m = 1
  coordinate x
  force x: x
  momentum x: m*x'
  lagrangian: m*x'^2/2
}
"""
        spec = parse_system(text)
        assert spec.declared_split is not None
        with pytest.raises(ReconstructionError) as err:
            spec.declared_decomposition()
        assert "x" in str(err.value)
        assert err.value.residual == VerticalOneForm((X,), (ZERO,))

    def test_time_clause_validation(self):
        with pytest.raises(ParseError):
            parse_system('system "t" { coordinate x; time 5 .. 1 step 0.1 }')
        with pytest.raises(ParseError):
            parse_system('system "t" { coordinate x; time 0 .. 1 step 0 }')

    def test_integrator_clause(self):
        spec = parse_system('system "i" { coordinate x; integrator rkf45 }')
        assert spec.integrator == "rkf45"
        with pytest.raises(ParseError):
            parse_system('system "i" { coordinate x; integrator euler }')

    def test_antiexact_dv_component(self):
        text = """
system "split2" {
  parameter m = 1
  parameter b = 1
  coordinate x
  force x: -b*x'/2
  momentum x: m*x' + b*x/2
  lagrangian: m*x'^2/2
  antiexact x: -b*x'/2
  antiexact x': b*x/2
}
"""
        spec = parse_system(text)
        dec = spec.declared_decomposition()
        assert dec.anti_exact == VerticalOneForm(
            (-B * V / 2,), (B * X / 2,)
        )


class TestPresets:
    def test_all_presets_parse(self):
        for name in PRESETS:
            spec = preset(name)
            assert spec.n == 1
            assert spec.init is not None and spec.time is not None

    def test_damped_ho_equation(self):
        spec = preset("damped_ho")
        f = spec.signals["f"]
        fe = Expr.var(signal_symbol(f))
        A = Expr.var(acc(0))
        assert dual_spencer(spec.phi).normalized() == (M * A + K * X + B * V - fe,)

    def test_duffing_equation(self):
        spec = preset("duffing")
        A = Expr.var(acc(0))
        a_p = Expr.var(param("a"))
        assert dual_spencer(spec.phi).normalized() == (M * A + a_p * X**3 + B * V,)

    def test_vanderpol_equation(self):
        spec = preset("vanderpol")
        A = Expr.var(acc(0))
        b0 = Expr.var(param("b0"))
        expected = M * A + K * X + b0 * (X**2 - 1) * V
        assert dual_spencer(spec.phi).normalized() == (expected,)


# Words that reach every statement kind, the error paths of the lexer and
# the resolver, and values beyond the float range.
_SNIPPETS = [
    "x", "x'", "x''", "y", "q", "k", "m", "t", "sig(f)", "dsig(f)", "1e400", "-1e400",
    "1/0", "^", "*", "(", ")", ":", ";", "=", ",", "..", "#", '"', "}", "@",
    "\nforce z: 1\n", "\nantiexact x': k*x\n", "\ninit x = 2\n", "\ninit x' = 1e400\n",
    "\nlagrangian: x\n", "\noracle q: 1\n", "\ncoordinate y\n", "\nmomentum y: x\n",
    "\nsignal g = polynomial(1, 2)\n", "\ntime 0 .. 1e400 step 1e395\n",
]


@st.composite
def mutated_presets(draw, time=None):
    """A preset with one to four words inserted, replaced or deleted; with
    ``time``, that clause first replaces the preset's own."""
    text = draw(st.sampled_from(sorted(PRESETS.values())))
    if time is not None:
        text = re.sub(r"time [^\n]*", time, text)
    words = text.split(" ")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(words) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "delete":
            del words[i]
        else:
            words[i : i + (edit == "replace")] = [draw(st.sampled_from(_SNIPPETS))]
    return " ".join(words)


# every command that derives, decomposes, integrates or audits a system
_CLI_RUNS = (
    ["derive"],
    ["decompose"],
    ["decompose", "--mode", "declared"],
    ["simulate", "--audit", "--oracle", "--out"],
    ["simulate", "--method", "rkf45", "--audit", "--out"],
)


class TestParseSystemFuzz:
    @settings(max_examples=400)
    @given(mutated_presets())
    def test_any_text_gives_a_spec_or_a_mech_error(self, text):
        try:
            spec = parse_system(text)
        except MechError:
            return
        assert isinstance(spec, SystemSpec)

    @settings(max_examples=500)
    @given(mutated_presets(time="time 0 .. 0.2 step 1e-2"))
    # found by this test: a block without coordinates ended in an IndexError
    @example(text=PRESETS["harmonic"].replace("  coordinate x\n", ""))
    def test_any_text_exits_0_to_3_through_the_cli(self, tmp_path_factory, text):
        work = tmp_path_factory.getbasetemp()
        (work / "fuzz.mech").write_text(text, encoding="utf-8")
        for run in _CLI_RUNS:
            argv = [run[0], str(work / "fuzz.mech"), *run[1:]]
            if argv[-1] == "--out":
                argv.append(str(work / "fuzz.csv"))
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, printed.getvalue())
            assert "internal error" not in printed.getvalue()
            assert "Traceback" not in printed.getvalue()
            if printed.getvalue().startswith("parse error: "):
                break  # every command parses the same file first


class TestNestingBound:
    SIG_CTX = ExprContext(coords=("x",), signals={"f": polynomial_signal("f", 1, 1)})

    @pytest.mark.parametrize(
        "opener, inner, closer, error_col",
        [
            ("(", "x", ")", MAX_NESTING + 1),
            ("-", "x", "", MAX_NESTING + 1),
            # the outermost reference is not nested: the error names the innermost one
            ("dsig(", "sig(f)", ")", (MAX_NESTING + 1) * 5 + 1),
        ],
    )
    def test_bound_is_exact(self, opener, inner, closer, error_col):
        def nested(depth):
            return opener * depth + inner + closer * depth

        text_to_expr(nested(MAX_NESTING), self.SIG_CTX)
        with pytest.raises(ParseError) as info:
            text_to_expr(nested(MAX_NESTING + 1), self.SIG_CTX)
        assert info.value.message == f"expression nested deeper than {MAX_NESTING} levels"
        assert (info.value.line, info.value.col) == (1, error_col)


class TestInputBounds:
    @pytest.mark.parametrize(
        "text, power",
        [
            (f"x^{MAX_POWER}", MAX_POWER),
            ("x^10^100", 1000),
            (f"x^{MAX_POWER}/2^{MAX_POWER}", MAX_POWER),  # the divisor has its own run
            (f"x^{MAX_POWER}*y^{MAX_POWER}", MAX_POWER),  # * ends a run of ^
            (f"(x^{MAX_POWER})^2", 2 * MAX_POWER),  # a parenthesis ends one too
        ],
    )
    def test_power_at_bound_parses(self, text, power):
        e = text_to_expr(text, CTX)
        assert max(exp for mono, _ in e.terms for _, exp in mono) == power

    @pytest.mark.parametrize(
        "text, at",
        [
            (f"x^{MAX_POWER + 1}", str(MAX_POWER + 1)),
            ("x^10^101", "101"),
            ("x/2^10^101", "101"),  # the divisor's run of ^
            ("2^1e400", "1e400"),
            ("k*(x + 1)^2^1000", "1000"),
        ],
    )
    def test_power_beyond_bound_fails_at_literal(self, text, at):
        with pytest.raises(ParseError) as info:
            text_to_expr(text, CTX)
        assert info.value.message == f"power beyond MAX_POWER = {MAX_POWER}"
        assert info.value.col == text.rindex(at) + 1

    @pytest.mark.parametrize(
        "text",
        [
            "10^999*x", "x*10^999", "(10^333*x)^3", "2^1000*3^200*x/7", "x/10^999",
            "2^1000*x/7^100",
        ],
    )
    def test_coefficient_at_bound_parses(self, text):
        e = text_to_expr(text, CTX)
        ((_, c),) = e.terms
        assert len(str(abs(c.numerator))) <= MAX_COEFFICIENT_DIGITS
        assert len(str(c.denominator)) <= MAX_COEFFICIENT_DIGITS

    @pytest.mark.parametrize(
        "text, at",
        [
            ("10^1000*x", "^"),  # the power
            ("x*10^1000", "*"),  # a product by a power of a literal
            ("10^999*10*x", "*10*"),  # a product
            ("x/10^999/100", "/100"),  # a quotient
            ("x/10^1000", "^"),  # a divisor: the literal raised to its run of ^
            ("(10^500*x)^2", "^"),  # an expanded power
            ("(10^400*x + 1)^11", "^"),  # refused before it is formed
            ("(10^600*x)*(10^600*y)", "*("),  # an expanded product
            ("(x/10^999 + 1)/100", "/100"),  # an expanded quotient
        ],
    )
    def test_coefficient_beyond_bound_fails_at_operator(self, text, at):
        with pytest.raises(ParseError) as info:
            text_to_expr(text, CTX)
        assert info.value.message == (
            f"coefficient beyond MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} digits"
        )
        assert info.value.col == text.rindex(at) + 1

    def test_renderer_refuses_what_the_parser_did_not_form(self):
        e = text_to_expr("1" + "0" * MAX_COEFFICIENT_DIGITS + "*x", CTX)
        with pytest.raises(MechError, match="MAX_COEFFICIENT_DIGITS"):
            format_expr(e)
        assert format_expr(e / 10) == "1" + "0" * (MAX_COEFFICIENT_DIGITS - 1) + "*x"

    @pytest.mark.parametrize("exponent", [MAX_EXPONENT, -MAX_EXPONENT])
    def test_exponent_at_bound_parses(self, exponent):
        spec = parse_system(f'system "s" {{ coordinate x; parameter k = 3e{exponent} }}')
        assert spec.params["k"] == 3 * Fraction(10) ** exponent

    @pytest.mark.parametrize(
        "literal", [f"1e{MAX_EXPONENT + 1}", f"2.5E-{MAX_EXPONENT + 1}", "1e10000000"]
    )
    def test_exponent_beyond_bound_fails_at_literal(self, literal):
        text = f'system "s" {{ coordinate x; parameter k = {literal} }}'
        with pytest.raises(ParseError) as info:
            parse_system(text)
        assert info.value.message == f"literal exponent beyond {MAX_EXPONENT} in magnitude"
        assert (info.value.line, info.value.col) == (1, text.index(literal) + 1)

    def test_time_grid_at_bound_parses(self):
        spec = parse_system(f'system "s" {{ coordinate x; time 0 .. 1 step 1/{MAX_TIME_STEPS} }}')
        assert spec.time == (0.0, 1.0, 1 / MAX_TIME_STEPS)

    def test_time_grid_beyond_bound_fails_at_step(self):
        # never integrated: 10^12 samples would not fit in memory
        text = 'system "s" {\n  coordinate x\n  time 0 .. 1 step 1e-12\n}'
        with pytest.raises(ParseError) as info:
            parse_system(text)
        assert info.value.message == f"time grid of more than {MAX_TIME_STEPS} steps"
        assert (info.value.line, info.value.col) == (3, len("  time 0 .. 1 step ") + 1)

    def test_time_grid_of_huge_integers_fails_at_step(self):
        # exact integers: the step count is never a float division
        text = 'system "s" { coordinate x; time 0 .. 1e400 step 1 }'
        with pytest.raises(ParseError) as info:
            parse_system(text)
        assert info.value.message == f"time grid of more than {MAX_TIME_STEPS} steps"

    def test_step_below_float_resolution_fails_at_step(self, capsys, tmp_path):
        # near 1e16 floats are 2 apart: a step of 1 would repeat sample times
        text = (
            'system "far" {\n  parameter m = 1\n  coordinate x\n  force x: -x\n'
            "  init x = 1, x' = 0\n  time 10000000000000000 .. 10000000000000100 step 1\n}"
        )
        with pytest.raises(ParseError) as info:
            parse_system(text)
        assert info.value.message == f"step finer than {MIN_STEP_ULPS} ulps of the larger time endpoint"
        assert (info.value.line, info.value.col) == (6, text.splitlines()[5].index("step 1") + 6)
        path = tmp_path / "far.mech"
        path.write_text(text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "far.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: line 6, col {info.value.col}: step finer")

    @pytest.mark.parametrize("step", ["1e-3", "1e-4"])
    def test_fine_step_far_from_zero_simulates(self, capsys, tmp_path, step):
        text = (
            'system "far" { parameter m = 1; coordinate x; force x: -x; '
            f"init x = 1, x' = 0; time 1000000 .. 1000001 step {step} }}"
        )
        assert parse_system(text).time == (1e6, 1e6 + 1, float(Fraction(step)))
        path = tmp_path / "far.mech"
        path.write_text(text)
        out = tmp_path / "far.csv"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + round(1 / float(Fraction(step))) + 1
