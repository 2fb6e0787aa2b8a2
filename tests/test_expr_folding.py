"""The emitted expression source leaves out exact identity factors only.

``expr_source`` drops a ``1.0`` coefficient, turns a ``-1.0`` coefficient
into a unary minus and drops a parameter whose literal is ``1.0``. The
reference below is the generator as it was before that folding, kept
verbatim but for one fix it shares with the current one: a literal base
that begins with ``-`` is parenthesized. Seeded random expressions, compiled
from both, must give the same value bit for bit (by ``repr``, so a NaN of
either sign is ``nan``) at signed zeros, subnormals, the float extremes,
infinities and NaN, and must raise the same errors: on arrays through
``compile_expr``, whose sin/cos are numpy's, and on Python floats through
``math``'s, as the generated kernels evaluate the same source. The
``+ 0.0`` of a sinusoid's phase and of a polynomial's zero coefficient stay:
they turn ``-0.0`` into ``0.0``, which the signed-zero inputs would show.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from jetmech.dsl import PRESETS, preset
from jetmech.dynamics import assemble_explicit
from jetmech.errors import UnboundSymbolError
from jetmech.spencer import dual_spencer
from jetmech.symexpr import (
    TAU,
    Expr,
    PolynomialSignal,
    SymbolKind,
    acc,
    compile_expr,
    coord,
    expr_source,
    param,
    polynomial_signal,
    signal_symbol,
    sinusoid_signal,
    vel,
)

# ---------------------------------------------------------------------------
# reference: the generator before the folding
# ---------------------------------------------------------------------------


def _float_lit(q) -> str:
    return repr(float(q))


def _signal_code(sym, t: str) -> str:
    sig = sym.signal
    if isinstance(sig, PolynomialSignal):
        coeffs = sig.derivative_coeffs(sym.order)
        if not coeffs:
            return "0.0"
        body = _float_lit(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            body = f"({_float_lit(c)} + {t}*({body}))"
        return body
    amp, use_cos = sig.derivative_parts(sym.order)
    fn = "cos" if use_cos else "sin"
    angle = f"{_float_lit(sig.omega)}*{t} + {_float_lit(sig.phase)}"
    return f"({_float_lit(amp)}*{fn}({angle}))"


def reference_expr_source(e, params, t="t", x="x[{}]", v="v[{}]", a="a[{}]") -> str:
    pieces = []
    for mono, c in e.terms:
        factors = [_float_lit(c)]
        for sym, exp in mono:
            if sym.kind == SymbolKind.TIME:
                base = t
            elif sym.kind == SymbolKind.COORD:
                base = x.format(sym.index)
            elif sym.kind == SymbolKind.VEL:
                base = v.format(sym.index)
            elif sym.kind == SymbolKind.ACC:
                base = a.format(sym.index)
            elif sym.kind == SymbolKind.PARAM:
                if sym.name not in params:
                    raise UnboundSymbolError(f"parameter '{sym.name}' has no value")
                base = repr(float(params[sym.name]))
            else:
                base = _signal_code(sym, t)
            if base.startswith("-"):  # the shared fix: (-2.0)**2 is 4.0
                base = f"({base})"
            factors.append(base if exp == 1 else f"{base}**{exp}")
        pieces.append("*".join(factors))
    return " + ".join(pieces) if pieces else "0.0"


def compile_source(body: str, vectorized: bool):
    """``f(t, x, v, a=None)`` returning ``body``, with numpy's sin/cos when
    ``vectorized`` and ``math``'s otherwise."""
    if vectorized:
        namespace = {"sin": np.sin, "cos": np.cos}
    else:
        namespace = {"sin": math.sin, "cos": math.cos}
    src = f"def _compiled(t, x, v, a=None):\n    return {body}\n"
    exec(src, namespace)  # noqa: S102 - generated locally
    return namespace["_compiled"]


def reference_compile(e, params, vectorized):
    return compile_source(reference_expr_source(e, params), vectorized)


# ---------------------------------------------------------------------------
# seeded random expressions and inputs
# ---------------------------------------------------------------------------

PARAMS = {"one": 1.0, "minus_one": -1.0, "minus_zero": -0.0, "half": 0.5}
COEFFICIENTS = (1, -1, 2, -2, Fraction(1, 3))
SIGNALS = (
    sinusoid_signal("s", Fraction(1, 2), 3, 0),  # phase 0: emits "+ 0.0"
    polynomial_signal("p", 0, -2),  # zero constant: emits "(0.0 + t*(-2.0))"
    polynomial_signal("c", -2),  # the literal "-2.0"
)
SYMBOLS = (
    TAU, coord(0), coord(1), vel(0), acc(0),
    *(param(name) for name in PARAMS),
    *(signal_symbol(sig, order) for sig in SIGNALS for order in (0, 1)),
)
INPUTS = (
    0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308,
    math.inf, -math.inf, math.nan, 1.5, -0.75,
)


def random_expr(rng: random.Random) -> Expr:
    e = Expr.const(0)
    for _ in range(rng.choice((1, 1, 2, 3))):
        term = Expr.const(rng.choice(COEFFICIENTS))
        for sym in rng.sample(SYMBOLS, rng.choice((1, 1, 2, 3))):
            term = term * Expr.var(sym) ** rng.choice((1, 1, 2, 3))
        e = e + term
    return e


def random_points(rng: random.Random, count: int) -> list:
    """(t, x0, x1, v0, a0) rows drawn from INPUTS."""
    return [tuple(rng.choice(INPUTS) for _ in range(5)) for _ in range(count)]


def scalar_outcome(fn, point):
    t, x0, x1, v0, a0 = point
    try:
        out = fn(t, [x0, x1], [v0], [a0])
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__
    return type(out).__name__, repr(out)


def vectorized_outcome(fn, points):
    t, x0, x1, v0, a0 = (np.array(column) for column in zip(*points))
    with np.errstate(all="ignore"):
        out = fn(t, np.array([x0, x1]), v0[None, :], a0[None, :])
    return [repr(float(value)) for value in np.broadcast_to(out, t.shape)]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_folded_source_is_bitwise_the_reference():
    rng = random.Random("expr-folding")
    folded = 0
    for _ in range(200):
        e = random_expr(rng)
        points = random_points(rng, 40)
        scalar = compile_source(expr_source(e, PARAMS), False)
        reference = reference_compile(e, PARAMS, False)
        for point in points:
            assert scalar_outcome(scalar, point) == scalar_outcome(reference, point), (e, point)
        vector = compile_expr(e, PARAMS)
        expected = vectorized_outcome(reference_compile(e, PARAMS, True), points)
        assert vectorized_outcome(vector, points) == expected, e
        folded += "1.0*" in reference_expr_source(e, PARAMS)
    assert folded > 100  # most expressions had a factor to fold


def test_each_fold():
    x, k = Expr.var(coord(0)), Expr.var(param("k"))
    cases = {
        x: "x[0]",
        -x: "-x[0]",
        -(x**2) * k: "-x[0]**2",
        k: "1.0",
        -k: "-1.0",
        -(k**3): "-1.0",
        2 * x * k: "2.0*x[0]",
    }
    for e, source in cases.items():
        assert expr_source(e, {"k": 1.0}) == source


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_laws_multiply_by_no_unit(name):
    system = preset(name)
    law = assemble_explicit(dual_spencer(system.phi), system.param_values()).law
    assert not re.search(r"(?<![\w.])1\.0\*|\*1\.0(?![\w.])", law), law
    if name == "harmonic":
        assert law == "a{s}_0 = (-x{s}_0)"
