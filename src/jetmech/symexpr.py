"""Exact canonical polynomial expressions over jet coordinates.

The scalar algebra everything else is built on: expressions are finite sums
of terms ``rational * power-product`` over a small vocabulary of symbols
(time t, coordinates x^i, velocities x'^i, accelerations x''^i, named
parameters, and registered forcing signals). Coefficients are exact: an
``int`` when the value is integral and a ``fractions.Fraction`` otherwise,
so algebraic identities hold exactly, not to tolerance, and the common
integer case does no ``Fraction`` work. Two expressions are equal iff their
canonical forms are structurally identical; ``2 == Fraction(2)`` and their
hashes agree, so equality and hashing do not depend on the coefficient type.

Forcing signals are opaque functions of time from two closed families
(polynomials and sinusoids), each with exact derivatives inside its family.
Polynomial signals may participate in the scaling integral; sinusoids may
not.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from dataclasses import dataclass, field
from decimal import MAX_EMAX, Context
from enum import IntEnum
from fractions import Fraction
from typing import Callable, Mapping, Union

import numpy as np

from .errors import DifferentiationError, MechError, UnboundSymbolError

Rational = Union[int, Fraction]


def _canonical(c: Rational) -> Rational:
    """An integral Fraction as its int; any other coefficient unchanged."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def _exact(value) -> Rational:
    """``value`` as a canonical coefficient: an int when integral, else a
    Fraction with denominator > 1."""
    if isinstance(value, Fraction):
        return _canonical(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        raise TypeError(
            "floating-point coefficients are not exact; use Fraction or int"
        )
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# ---------------------------------------------------------------------------
# forcing signals
# ---------------------------------------------------------------------------


def _pair(q: Rational) -> tuple[int, int]:
    return q.numerator, q.denominator


# A signal's ``shape`` is its family tag and exact arguments as
# (numerator, denominator) int pairs, computed once; symbols order by it.
# Its hash is recomputed on every call: a cached hash would be pickled with
# the signal, and str hashes differ between processes.


@dataclass(frozen=True)
class PolynomialSignal:
    """Signal t -> sum_k coeffs[k] * t**k with exact rational coefficients."""

    name: str
    coeffs: tuple[Rational, ...]
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(_exact(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "shape", ("poly", tuple(_pair(c) for c in coeffs)))

    def __hash__(self):
        return hash((self.name, self.shape))

    @property
    def admissible(self) -> bool:
        return True

    def derivative_coeffs(self, order: int) -> tuple[Rational, ...]:
        """Coefficients of the order-th derivative, same polynomial family."""
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = tuple(c * k for k, c in enumerate(coeffs) if k >= 1)
        return coeffs

    def value_at(self, t: float, order: int = 0) -> float:
        acc = 0.0
        for c in reversed(self.derivative_coeffs(order)):
            acc = acc * t + float(c)
        return acc


@dataclass(frozen=True)
class SinusoidSignal:
    """Signal A*sin(omega*t + phase) (or cos when ``cosine`` is set).

    Derivatives cycle through the sin/cos pair with an extra factor omega,
    so every derivative stays inside the family with exact parameters.
    """

    name: str
    amplitude: Rational
    omega: Rational
    phase: Rational
    cosine: bool = False
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        amplitude, omega, phase = map(_exact, (self.amplitude, self.omega, self.phase))
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "phase", phase)
        shape = ("sin", _pair(amplitude), _pair(omega), _pair(phase), self.cosine)
        object.__setattr__(self, "shape", shape)

    def __hash__(self):
        return hash((self.name, self.shape))

    @property
    def admissible(self) -> bool:
        return False

    def derivative_parts(self, order: int) -> tuple[Rational, bool]:
        """(signed amplitude including omega**order, use-cosine flag)."""
        amp = self.amplitude * self.omega**order
        phase_quarter = (order + (1 if self.cosine else 0)) % 4
        # quarter turns: sin, cos, -sin, -cos
        if phase_quarter >= 2:
            amp = -amp
        return amp, phase_quarter % 2 == 1

    def value_at(self, t: float, order: int = 0) -> float:
        amp, use_cos = self.derivative_parts(order)
        angle = float(self.omega) * t + float(self.phase)
        return float(amp) * (math.cos(angle) if use_cos else math.sin(angle))


ForcingSignal = Union[PolynomialSignal, SinusoidSignal]


def polynomial_signal(name: str, *coeffs) -> PolynomialSignal:
    return PolynomialSignal(name, coeffs)


def sinusoid_signal(name: str, amplitude, omega, phase) -> SinusoidSignal:
    return SinusoidSignal(name, amplitude, omega, phase)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


class SymbolKind(IntEnum):
    TIME = 0
    COORD = 1
    VEL = 2
    ACC = 3
    PARAM = 4
    SIGNAL = 5


class Symbol(namedtuple("Symbol", "kind index name order shape signal")):
    """One coordinate of the symbolic vocabulary.

    ``index`` is the coordinate index for COORD/VEL/ACC kinds, ``name`` the
    identifier for PARAM, and SIGNAL symbols carry their ForcingSignal plus
    a derivative order (order 0 is the signal itself, 1 its time derivative,
    and so on). A signal symbol's name is its signal's, and its ``shape`` is
    the signal's family tag and exact arguments (empty for other kinds).

    A symbol is the tuple (kind, index, name, order, shape, signal), so
    equality, hashing and the canonical term order are one definition.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: SymbolKind,
        index: int = 0,
        name: str = "",
        signal: ForcingSignal | None = None,
        order: int = 0,
    ):
        if index < 0:
            raise ValueError("coordinate index must be nonnegative")
        if kind == SymbolKind.PARAM and not name:
            raise ValueError("parameter symbols need a name")
        shape: tuple = ()
        if kind == SymbolKind.SIGNAL:
            if signal is None:
                raise ValueError("signal symbols must reference a ForcingSignal")
            if order < 0:
                raise ValueError("signal derivative order must be nonnegative")
            if index != 0 or name not in ("", signal.name):
                raise ValueError("signal symbols take no index and their signal's name")
            name = signal.name
            shape = signal.shape
        elif signal is not None or order != 0:
            raise ValueError("signal/order fields are reserved for SIGNAL symbols")
        return super().__new__(cls, kind, index, name, order, shape, signal)

    def __getnewargs__(self):
        # pickle and copy rebuild a symbol through the constructor's arguments
        return self.kind, self.index, self.name, self.signal, self.order

    def display(self, coords: tuple[str, ...] = ()) -> str:
        """Short name used by repr and the default renderer."""
        if self.kind == SymbolKind.TIME:
            return "t"
        if self.kind == SymbolKind.COORD:
            return coord_name(self.index, coords)
        if self.kind == SymbolKind.VEL:
            return coord_name(self.index, coords) + "'"
        if self.kind == SymbolKind.ACC:
            return coord_name(self.index, coords) + "''"
        if self.kind == SymbolKind.PARAM:
            return self.name
        inner = f"sig({self.signal.name})"
        for _ in range(self.order):
            inner = f"dsig({inner[4:-1]})" if inner.startswith("sig(") else f"dsig({inner})"
        return inner


def coord_name(i: int, coords: tuple[str, ...] = ()) -> str:
    """Name of coordinate i: its declared name, else x, y, z, x3, x4, ..."""
    if i < len(coords):
        return coords[i]
    return ("x", "y", "z")[i] if i < 3 else f"x{i}"


TAU = Symbol(SymbolKind.TIME)


def coord(i: int) -> Symbol:
    return Symbol(SymbolKind.COORD, index=i)


def vel(i: int) -> Symbol:
    return Symbol(SymbolKind.VEL, index=i)


def acc(i: int) -> Symbol:
    return Symbol(SymbolKind.ACC, index=i)


def param(name: str) -> Symbol:
    return Symbol(SymbolKind.PARAM, name=name)


def signal_symbol(signal: ForcingSignal, order: int = 0) -> Symbol:
    return Symbol(SymbolKind.SIGNAL, signal=signal, order=order)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

# a monomial is a tuple of (Symbol, exponent>0) pairs in Symbol tuple order
Monomial = tuple[tuple[Symbol, int], ...]

# Most term products one multiplication may form (terms of one factor times
# terms of the other). Squaring doubles a polynomial's degree, so a few
# nested powers in a system file would otherwise expand without limit; the
# bound is checked before the product is formed, and powers multiply, so it
# covers them too.
MAX_TERM_PRODUCT = 50_000


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials: a merge of their sorted factor tuples."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1 == s2:
            out.append((s1, e1 + e2))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return (*out, *m1[i:], *m2[j:])


class Expr:
    """Canonical multivariate polynomial with exact rational coefficients.

    Immutable; arithmetic re-canonicalizes, so structural equality is
    semantic equality. Instances are hashable and safe to share between
    threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, _terms: tuple[tuple[Monomial, Rational], ...] = ()):
        # internal: _terms must already be canonical (sorted monomials, no
        # zero coefficient, an int for every integral one); use the
        # factories below
        self._terms = _terms

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_map(acc: Mapping[Monomial, Rational]) -> "Expr":
        """The expression sum(c * mono) of a {monomial: coefficient} map.

        Each monomial must be canonical; zero coefficients are dropped and
        integral Fractions become ints.
        """
        terms = [(mono, _canonical(c)) for mono, c in acc.items() if c]
        terms.sort()
        return Expr(tuple(terms))

    @classmethod
    def const(cls, value: Rational) -> "Expr":
        q = _exact(value)
        return cls(() if q == 0 else (((), q),))

    @classmethod
    def var(cls, symbol: Symbol) -> "Expr":
        term = (((symbol, 1),), 1)
        return cls((term,))  # type: ignore[arg-type]

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Rational], ...]:
        """(monomial, coefficient) pairs in canonical order; a coefficient is
        an int when integral and a Fraction otherwise."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def symbols(self) -> set[Symbol]:
        return {sym for mono, _ in self._terms for sym, _ in mono}

    def contains_kind(self, kind: SymbolKind) -> bool:
        return any(sym.kind == kind for sym in self.symbols())

    def max_coordinate_index(self) -> int:
        """Largest coordinate/velocity/acceleration index present, or -1."""
        idx = -1
        for sym in self.symbols():
            if sym.kind in (SymbolKind.COORD, SymbolKind.VEL, SymbolKind.ACC):
                idx = max(idx, sym.index)
        return idx

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        """``other`` as an Expr, or NotImplemented if it is not exact."""
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.const(other)
        if isinstance(other, Symbol):
            return Expr.var(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a:
            return other
        if not b:
            return self
        # merge the two sorted term tuples
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            ma = a[i][0]
            mb = b[j][0]
            if ma == mb:
                c = a[i][1] + b[j][1]
                if c:
                    out.append((ma, _canonical(c)))
                i += 1
                j += 1
            elif ma < mb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return Expr((*out, *a[i:], *b[j:]))

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((m, -c) for m, c in self._terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) * len(b) > MAX_TERM_PRODUCT:
            raise MechError(
                f"expression too large: a product of {len(a)} by "
                f"{len(b)} terms exceeds MAX_TERM_PRODUCT = {MAX_TERM_PRODUCT}"
            )
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # one term times each term: the monomials stay distinct, but
            # their order can change
            ((m2, c2),) = b
            terms = [(_mono_mul(m1, m2), _canonical(c1 * c2)) for m1, c1 in a]
            terms.sort()
            return Expr(tuple(terms))
        acc: dict = {}
        for m1, c1 in a:
            for m2, c2 in b:
                mono = _mono_mul(m1, m2)
                acc[mono] = acc.get(mono, 0) + c1 * c2
        return Expr.from_map(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponents must be nonnegative integers")
        result = Expr.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _exact(other)
            if q == 0:
                raise ZeroDivisionError("division of an expression by zero")
            return self * Fraction(1, q)
        raise TypeError("expressions may only be divided by exact rationals")

    def __eq__(self, other):
        if isinstance(other, Expr):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Expr.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        return f"Expr({format_expr(self)})"


ZERO = Expr.const(0)


# factor order for rendering: parameters first, then signals, time, and the
# jet coordinates, which matches conventional physics notation (k*x^2)
_DISPLAY_RANK = {
    SymbolKind.PARAM: 0,
    SymbolKind.SIGNAL: 1,
    SymbolKind.TIME: 2,
    SymbolKind.COORD: 3,
    SymbolKind.VEL: 4,
    SymbolKind.ACC: 5,
}


def format_expr(e: Expr, coords: tuple[str, ...] = ()) -> str:
    """Deterministic re-parseable rendering of a canonical expression.

    Factors print parameters first, then signals, time and jet coordinates;
    rational coefficients render as p/q prefixes. Coordinates beyond the
    given names fall back to x, y, z, x3, ...
    """
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


# ---------------------------------------------------------------------------
# differentiation, substitution, evaluation
# ---------------------------------------------------------------------------


def _power_rule(e: Expr, s: Symbol) -> Expr:
    """d/ds treating s as an independent variable (no chain rule)."""
    acc: dict = {}
    for mono, c in e.terms:
        for k, (sym, exp) in enumerate(mono):
            if sym == s:
                if exp == 1:
                    new = mono[:k] + mono[k + 1 :]
                else:
                    new = mono[:k] + ((sym, exp - 1),) + mono[k + 1 :]
                acc[new] = acc.get(new, 0) + c * exp
                break
    return Expr.from_map(acc)


def partial(e: Expr, s: Symbol) -> Expr:
    """Exact partial derivative.

    Differentiation with respect to time applies the chain rule to signal
    symbols (each order-k signal symbol contributes its order-(k+1)
    companion); differentiating with respect to a signal symbol itself is
    undefined, since signals are functions of time, not independent
    variables.
    """
    if s.kind == SymbolKind.SIGNAL:
        raise DifferentiationError(
            f"cannot differentiate with respect to signal '{s.signal.name}'"
        )
    result = _power_rule(e, s)
    if s.kind == SymbolKind.TIME:
        sig_syms = {sym for sym in e.symbols() if sym.kind == SymbolKind.SIGNAL}
        for sym in sig_syms:
            bumped = signal_symbol(sym.signal, sym.order + 1)
            result = result + _power_rule(e, sym) * Expr.var(bumped)
    return result


def substitute(e: Expr, binding: Mapping[Symbol, Union[Expr, Rational, Symbol]]) -> Expr:
    """Simultaneous substitution, re-canonicalized.

    Signal symbols may not be rebound (they are functions of time).
    """
    values = {}
    for key, value in binding.items():
        if key.kind == SymbolKind.SIGNAL:
            raise ValueError("cannot substitute for signal symbols")
        values[key] = Expr._coerce(value)
        if values[key] is NotImplemented:
            raise TypeError(f"cannot substitute {value!r}: not an exact expression")
    out = ZERO
    for mono, c in e.terms:
        term = Expr.const(c)
        for sym, exp in mono:
            term = term * values.get(sym, Expr.var(sym)) ** exp
        out = out + term
    return out


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
                base = sym.signal.value_at(float(binding[TAU]), sym.order)
            else:
                raise UnboundSymbolError(f"unbound symbol {sym.display()}")
            val *= base**exp
        total += val
    return total


# ---------------------------------------------------------------------------
# the scaling integral
# ---------------------------------------------------------------------------

def scaling_integral(e: Expr, weight: int = 0) -> Expr:
    """Integrate s^weight * e(t, s*x, s*v) over s in [0, 1], exactly.

    Coordinates and velocities are scaled by s; time, signals and parameters
    never are, so a term of fiber degree d picks up the factor
    1/(d+weight+1). The weight powers the homotopy operators on higher form
    degrees.
    """
    acc: dict = {}
    for mono, c in e.terms:
        d = sum(exp for sym, exp in mono if sym.kind in (SymbolKind.COORD, SymbolKind.VEL))
        acc[mono] = acc.get(mono, 0) + Fraction(c, d + weight + 1)
    return Expr.from_map(acc)


# ---------------------------------------------------------------------------
# compilation to fast numeric callables
# ---------------------------------------------------------------------------


def _float_lit(q: Rational) -> str:
    try:
        return repr(float(q))
    except OverflowError:
        # four digits in scientific notation, however long the exact value
        value = Context(prec=4, Emax=MAX_EMAX).divide(q.numerator, q.denominator)
        raise MechError(f"number {value:.3e} is beyond the float range") from None


def _signal_code(sym: Symbol, t: str) -> str:
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


def expr_source(
    e: Expr,
    params: Mapping[str, float],
    t: str = "t",
    x: str = "x[{}]",
    v: str = "v[{}]",
    a: str = "a[{}]",
) -> str:
    """Python source of one expression, with parameters bound as literals.

    ``t`` names the time variable; ``x``, ``v`` and ``a`` are format
    templates that name coordinate ``i`` of each kind. Signals call ``sin``
    and ``cos``, which the caller's namespace supplies. Raises
    UnboundSymbolError for parameters missing from ``params``.
    """
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
            factors.append(base if exp == 1 else f"{base}**{exp}")
        pieces.append("*".join(factors))
    return " + ".join(pieces) if pieces else "0.0"


# Most compiled functions compile_expr keeps, one per distinct generated
# source and flavour; one `verify --builtin-suite` job asks for a few dozen.
COMPILE_CACHE_SIZE = 1024


def compile_expr(
    e: Expr, params: Mapping[str, float], vectorized: bool = False
) -> Callable:
    """Compile to ``f(t, x, v, a=None)`` with parameters bound as constants.

    ``x``, ``v``, ``a`` are indexable by coordinate. The scalar flavour uses
    math.sin/cos; the vectorized flavour uses numpy and accepts arrays for
    every slot. Raises UnboundSymbolError for parameters missing from
    ``params``. Each distinct source is compiled once per flavour (up to
    COMPILE_CACHE_SIZE of them), so equal inputs return the same function.
    """
    return _compile(expr_source(e, params), vectorized)


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _compile(body: str, vectorized: bool) -> Callable:
    if vectorized:
        namespace = {"sin": np.sin, "cos": np.cos}
    else:
        namespace = {"sin": math.sin, "cos": math.cos}
    src = f"def _compiled(t, x, v, a=None):\n    return {body}\n"
    exec(src, namespace)  # noqa: S102 - source is generated locally
    return namespace["_compiled"]
