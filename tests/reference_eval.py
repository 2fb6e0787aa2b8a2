"""A second numeric evaluator for expressions, independent of compile_expr.

It walks an expression's terms in Python floats and evaluates signals from
their closed forms, so the tests can check ``compile_expr`` and ``partial``
against an evaluator that shares no generated source with them.
"""

from __future__ import annotations

import math
from typing import Mapping

from jetmech.errors import UnboundSymbolError
from jetmech.symexpr import TAU, Expr, PolynomialSignal, Symbol, SymbolKind


def signal_value(signal, t: float, order: int = 0) -> float:
    """The order-th time derivative of ``signal`` at ``t``."""
    if isinstance(signal, PolynomialSignal):
        acc = 0.0
        for c in reversed(signal.derivative_coeffs(order)):
            acc = acc * t + float(c)
        return acc
    amp, use_cos = signal.derivative_parts(order)
    angle = float(signal.omega) * t + float(signal.phase)
    return float(amp) * (math.cos(angle) if use_cos else math.sin(angle))


def evaluate(e: Expr, binding: Mapping[Symbol, float]) -> float:
    """Numeric evaluation; every non-signal symbol must be bound.

    Signal symbols are computed from their closed form at the bound time.
    """
    total = 0.0
    for mono, c in e.terms:
        val = float(c)
        for sym, exp in mono:
            if sym in binding:
                base = float(binding[sym])
            elif sym.kind == SymbolKind.SIGNAL:
                if TAU not in binding:
                    raise UnboundSymbolError(
                        f"evaluating signal '{sym.signal.name}' requires t"
                    )
                base = signal_value(sym.signal, float(binding[TAU]), sym.order)
            else:
                raise UnboundSymbolError(f"unbound symbol {sym.display()}")
            val *= base**exp
        total += val
    return total
