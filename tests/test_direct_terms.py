"""Exact terms built directly match the generic arithmetic they replace.

Where the shape of a result is known, the algebra builds its terms
directly: a parsed product of atoms becomes one term (``dsl.resolve_expr``
through ``Expr.term``), the power rule and the scaling integral list their
terms without summing onto 0, the force half of the mass split keeps the
residual's acceleration-free terms, and ``format_expr`` rotates canonical
order instead of sorting. (``verify.random_expr``'s int coefficients are
held to their reference in ``test_drawn_cases``.) The references below are
the generic paths as they were before, kept verbatim but for names. On
seeded random expressions, the direct paths must give the same terms,
coefficient types included, and the same rendered text.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetmech.dsl import (
    BinOp,
    ExprContext,
    Name,
    Neg,
    Num,
    ParseError,
    SigRef,
    TimeRef,
    UndeclaredSymbolError,
    parse_expr,
    resolve_expr,
)
from jetmech.dynamics import mass_and_force
from jetmech.errors import MechError
from jetmech.spencer import EquationsOfMotion
from jetmech.symexpr import (
    TAU,
    Expr,
    SymbolKind,
    ZERO,
    _mono_mul,
    _power_rule,
    acc,
    coord,
    format_expr,
    param,
    partial,
    polynomial_signal,
    scaling_integral,
    signal_symbol,
    sinusoid_signal,
    substitute,
    vel,
)

# ---------------------------------------------------------------------------
# references: the generic paths
# ---------------------------------------------------------------------------

_DISPLAY_RANK = {
    SymbolKind.PARAM: 0,
    SymbolKind.SIGNAL: 1,
    SymbolKind.TIME: 2,
    SymbolKind.COORD: 3,
    SymbolKind.VEL: 4,
    SymbolKind.ACC: 5,
}


def reference_format_expr(e: Expr, coords: tuple[str, ...] = ()) -> str:
    if e.is_zero:
        return "0"
    parts = []
    for i, (mono, c) in enumerate(e.terms):
        factors = sorted(mono, key=lambda it: (_DISPLAY_RANK[it[0].kind], it[0]))
        frags = []
        for sym, exp in factors:
            s = sym.display(coords)
            frags.append(s if exp == 1 else f"{s}^{exp}")
        body = "*".join(frags)
        mag = abs(c)
        if body and mag == 1:
            frag = body
        elif body:
            frag = f"{mag}*{body}"
        else:
            frag = str(mag)
        if i == 0:
            parts.append(("-" if c < 0 else "") + frag)
        else:
            parts.append((" - " if c < 0 else " + ") + frag)
    return "".join(parts)


def reference_resolve_expr(node, ctx: ExprContext) -> Expr:
    spine = []
    while isinstance(node, BinOp):
        spine.append(node)
        node = node.lhs
    out = _reference_leaf(node, ctx)
    exponent = 1
    for link in reversed(spine):
        if link.op == "^":
            exponent *= int(link.rhs.value)
            continue
        if exponent != 1:
            out, exponent = out**exponent, 1
        if link.op == "/":
            out = out / link.rhs.value
        elif link.op == "*":
            out = out * reference_resolve_expr(link.rhs, ctx)
        elif link.op == "+":
            out = out + reference_resolve_expr(link.rhs, ctx)
        else:
            out = out - reference_resolve_expr(link.rhs, ctx)
    return out if exponent == 1 else out**exponent


def _reference_leaf(node, ctx: ExprContext) -> Expr:
    if isinstance(node, Num):
        return Expr.const(node.value)
    if isinstance(node, TimeRef):
        return Expr.var(TAU)
    if isinstance(node, Neg):
        return -reference_resolve_expr(node.operand, ctx)
    if isinstance(node, SigRef):
        sig = ctx.signals.get(node.name)
        if sig is None:
            raise UndeclaredSymbolError(node.line, node.col, f"undeclared signal '{node.name}'")
        return Expr.var(signal_symbol(sig, node.order))
    assert isinstance(node, Name)
    if node.name in ctx.coords:
        i = ctx.coords.index(node.name)
        if node.primes == 0:
            return Expr.var(coord(i))
        if node.primes == 1:
            return Expr.var(vel(i))
        if not ctx.allow_acceleration:
            raise ParseError(node.line, node.col, "acceleration symbols are not permitted here")
        return Expr.var(acc(i))
    if node.name in ctx.params:
        if node.primes:
            raise ParseError(node.line, node.col, f"parameter '{node.name}' cannot be primed")
        return Expr.var(param(node.name))
    if node.name in ctx.signals:
        raise ParseError(
            node.line, node.col, f"signal '{node.name}' must be referenced as sig({node.name})"
        )
    raise UndeclaredSymbolError(node.line, node.col, f"undeclared symbol '{node.name}'")


def reference_power_rule(e: Expr, s) -> Expr:
    acc_: dict = {}
    for mono, c in e.terms:
        for k, (sym, exp) in enumerate(mono):
            if sym == s:
                if exp == 1:
                    new = mono[:k] + mono[k + 1 :]
                else:
                    new = mono[:k] + ((sym, exp - 1),) + mono[k + 1 :]
                acc_[new] = acc_.get(new, 0) + c * exp
                break
    return Expr.from_map(acc_)


def reference_scaling_integral(e: Expr, weight: int = 0) -> Expr:
    acc_: dict = {}
    for mono, c in e.terms:
        d = sum(exp for sym, exp in mono if sym.kind in (SymbolKind.COORD, SymbolKind.VEL))
        acc_[mono] = acc_.get(mono, 0) + Fraction(c, d + weight + 1)
    return Expr.from_map(acc_)


def reference_mul(a: Expr, b: Expr) -> Expr:
    acc_: dict = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            mono = _mono_mul(m1, m2)
            acc_[mono] = acc_.get(mono, 0) + c1 * c2
    return Expr.from_map(acc_)


def reference_mass_and_force(eom: EquationsOfMotion):
    n = eom.n
    zero_acc = {acc(j): ZERO for j in range(n)}
    mass = tuple(
        tuple(-partial(eom.residuals[i], acc(j)) for j in range(n)) for i in range(n)
    )
    force = tuple(substitute(eom.residuals[i], zero_acc) for i in range(n))
    constant = all(s.kind == SymbolKind.PARAM for row in mass for e in row for s in e.symbols())
    return mass, force, constant


# ---------------------------------------------------------------------------
# seeded random expression text
# ---------------------------------------------------------------------------

CTX = ExprContext(
    coords=("x", "y", "z"),
    params=frozenset({"k", "m"}),
    signals={
        "f": sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), Fraction(1, 4)),
        "w": polynomial_signal("w", 1, Fraction(-1, 2), Fraction(1, 3)),
    },
)
COORDS = CTX.coords

# names, time, signals of several orders (both families) and numbers,
# integral, decimal and zero
ATOMS = (
    "x", "y", "x'", "y'", "x''", "y''", "k", "m", "t",
    "sig(f)", "dsig(f)", "dsig(dsig(f))",
    "sig(w)", "dsig(w)", "dsig(dsig(dsig(w)))",
    "2", "3", "1", "0", "0.5", "1.25", "12",
)
FIBER_ATOMS = tuple(a for a in ATOMS if not a.endswith("''"))

# fixed cases the random ones may miss
FIXED = (
    "x^0", "0*x", "x^0*y", "x*0", "3/2*2*x", "(2*x)^0", "0^0*x", "0^2*x", "1/2*x^2",
    "k*x^2^3", "(k*x/2)^3*y", "-(k*x)", "-k*x*y'*t*sig(f)", "2*(x + y)*k", "(x + 1)^2*k",
    "x*y/3/4*6", "12/8*x'", "sig(w)^0*2", "k^2*m/3 - k^2*m/3", "t*x*(k)*m",
    "*".join(["x", "k", "sig(w)", "y'", "2", "t", "1/3"] * 8),
    "*".join(["x^2", "y'^0", "dsig(f)", "0.5"] * 15) + " - k",
)


def _factor(rng: random.Random, atoms) -> str:
    text = rng.choice(atoms)
    roll = rng.random()
    if roll < 0.25:
        text += f"^{rng.choice((0, 1, 2, 3))}"
    elif roll < 0.3:
        text += f"^{rng.choice((1, 2))}^{rng.choice((0, 2))}"
    if rng.random() < 0.15:
        text += f"/{rng.choice((2, 3, 4, 1.5))}"
    return text


def _term(rng: random.Random, atoms, depth: int) -> str:
    count = rng.choice((1, 1, 2, 2, 3, 4)) if rng.random() < 0.9 else rng.randint(12, 40)
    factors = [_factor(rng, atoms) for _ in range(count)]
    if depth < 2 and rng.random() < 0.15:
        inner = f"({random_text(rng, atoms, depth + 1)})"
        if rng.random() < 0.3:
            inner += f"^{rng.choice((0, 1, 2))}"
        factors.insert(rng.randrange(len(factors) + 1), inner)
    text = "*".join(factors)
    if rng.random() < 0.1:
        text = f"-{text}"
    return text


def random_text(rng: random.Random, atoms=ATOMS, depth: int = 0) -> str:
    text = _term(rng, atoms, depth)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        text += rng.choice((" + ", " - ")) + _term(rng, atoms, depth)
    return text


def typed(e: Expr) -> list:
    """The terms with each coefficient's type, which == would ignore."""
    return [(mono, type(c), c) for mono, c in e.terms]


def expressions(count: int, seed: str) -> list[str]:
    """The fixed cases, then ``count`` seeded random texts."""
    rng = random.Random(seed)
    return [*FIXED, *(random_text(rng) for _ in range(count))]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_resolution_and_rendering_match_the_generic_paths():
    one_term = 0
    for text in expressions(600, "direct-terms"):
        tree = parse_expr(text)
        e = resolve_expr(tree, CTX)
        expected = reference_resolve_expr(tree, CTX)
        assert typed(e) == typed(expected), text
        assert format_expr(e, COORDS) == reference_format_expr(expected, COORDS), text
        assert format_expr(e) == reference_format_expr(expected), text
        one_term += len(e.terms) == 1
    assert one_term > 100


def test_errors_are_those_of_the_generic_path():
    ctx = ExprContext(coords=("x",), params=frozenset({"k"}), allow_acceleration=False)
    cases = (
        "k*x*t*nope", "k*x^2*sig(g)", "2*x*x''", "k*x*k'", "x*k*(x + nope)",
        "nope*undeclared", "x*2^3*(k)*nope^2",
    )
    for text in cases:
        tree = parse_expr(text)
        with pytest.raises(ParseError) as direct:
            resolve_expr(tree, ctx)
        with pytest.raises(ParseError) as generic:
            reference_resolve_expr(tree, ctx)
        assert type(direct.value) is type(generic.value), text
        assert str(direct.value) == str(generic.value), text


def test_power_rule_scaling_integral_and_products_match():
    exprs = [resolve_expr(parse_expr(text), CTX) for text in expressions(500, "calculus")]
    assert len(exprs) >= 500
    probes = (TAU, coord(0), coord(2), vel(1), acc(0), param("k"))
    for e, other in zip(exprs, exprs[1:] + exprs[:1]):
        for s in (*e.symbols(), *probes):
            assert typed(_power_rule(e, s)) == typed(reference_power_rule(e, s)), (e, s)
        for weight in (-1, 0, 1, 2):
            try:
                expected = reference_scaling_integral(e, weight)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    scaling_integral(e, weight)
                continue
            assert typed(scaling_integral(e, weight)) == typed(expected), (e, weight)
        if len(e.terms) * len(other.terms) <= 400:
            assert typed(e * other) == typed(reference_mul(e, other)), (e, other)


def test_rendering_of_derived_expressions_matches():
    for text in expressions(200, "derived"):
        e = resolve_expr(parse_expr(text), CTX)
        for out in (partial(e, TAU), partial(e, coord(0)), scaling_integral(e, 1), -e):
            assert format_expr(out, COORDS) == reference_format_expr(out, COORDS)


def test_force_split_matches_substitution():
    rng = random.Random("mass-split")
    cases = 0
    for _ in range(250):
        n = rng.randint(1, 2)
        residuals = []
        for _ in range(n):
            parts = [resolve_expr(parse_expr(random_text(rng, FIBER_ATOMS)), CTX)]
            parts += [resolve_expr(parse_expr(random_text(rng, FIBER_ATOMS)), CTX)
                      for _ in range(n)]
            residual = parts[0]
            for j in range(n):
                residual = residual + parts[1 + j] * Expr.var(acc(j))
            if rng.random() < 0.1:
                # an acceleration beyond the system's coordinates is not zeroed
                residual = residual + Expr.var(acc(2)) * Expr.var(coord(0))
            residuals.append(residual)
        eom = EquationsOfMotion(tuple(residuals))
        try:
            expected = reference_mass_and_force(eom)
        except MechError:
            continue
        mass, force, constant = mass_and_force(eom)
        assert [typed(c) for c in force] == [typed(c) for c in expected[1]]
        assert [[typed(m) for m in row] for row in mass] == [
            [typed(m) for m in row] for row in expected[0]
        ]
        assert constant == expected[2]
        cases += 1
    assert cases > 200


def test_expr_term():
    x, k = coord(0), param("k")
    assert Expr.term(Fraction(6, 3), {k: 1, x: 2}) == 2 * Expr.var(k) * Expr.var(x) ** 2
    assert typed(Expr.term(Fraction(6, 3), {x: 1}))[0][1] is int
    assert Expr.term(3, {x: 0}).terms == (((), 3),)
    assert Expr.term(0, {x: 1}) is ZERO
    with pytest.raises(TypeError):
        Expr.term(0.5, {x: 1})
