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

from collections import namedtuple
from functools import cache, lru_cache
from dataclasses import dataclass, field
from decimal import MAX_EMAX, Context
from enum import IntEnum
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

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


# the kinds a walk compares with, as module constants (imported by formcalc
# and spencer): an attribute of the enum class is looked up again at each
# comparison
_TIME, _COORD, _VEL, _PARAM, _SIGNAL = (
    SymbolKind.TIME, SymbolKind.COORD, SymbolKind.VEL, SymbolKind.PARAM, SymbolKind.SIGNAL
)


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

# The jet coordinates and parameters are built once per index or name; the
# algebra asks for the same few symbols many times over. Parameter names come
# from system files, so that cache is bounded.


@cache
def coord(i: int) -> Symbol:
    return Symbol(SymbolKind.COORD, index=i)


@cache
def vel(i: int) -> Symbol:
    return Symbol(SymbolKind.VEL, index=i)


@cache
def acc(i: int) -> Symbol:
    return Symbol(SymbolKind.ACC, index=i)


@lru_cache(maxsize=1024)
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

    The symbol set, the hash and the vertical partials (``jet_partials``
    with ``with_time=False``) are computed on first use and kept. A pickle
    or copy carries the terms alone: str and signal hashes differ between
    processes, so a kept hash must not travel.
    """

    __slots__ = ("_terms", "_symbols", "_hash", "_partials")

    def __init__(self, _terms: tuple[tuple[Monomial, Rational], ...] = ()):
        # internal: _terms must already be canonical (sorted monomials, no
        # zero coefficient, an int for every integral one); use the
        # factories below
        self._terms = _terms
        self._symbols = None
        self._hash = None
        self._partials = None

    def __reduce__(self):
        return Expr, (self._terms,)

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

    @staticmethod
    def from_pairs(acc: Mapping[Monomial, tuple[int, int]]) -> "Expr":
        """The expression of a {monomial: (numerator, denominator)} map of
        canonical monomials and positive denominators: each coefficient
        reduced once, a zero dropped and an integral one an int.

        The one-walk operators keep their coefficients as such unreduced
        pairs, to reduce each once instead of once per ``Fraction``
        operation; the terms are those the ``Fraction`` sums would give.
        """
        terms = []
        for mono, (num, den) in acc.items():
            if num:
                if den != 1:
                    q = Fraction(num, den)
                    num = q if q.denominator != 1 else q.numerator
                terms.append((mono, num))
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

    @classmethod
    def term(cls, coefficient: Rational, powers: Mapping[Symbol, int]) -> "Expr":
        """The one-term expression ``coefficient * prod(s**k)`` of a
        {symbol: exponent} map: zero exponents are dropped, the factors
        sorted once, and an integral Fraction coefficient becomes its int."""
        q = _exact(coefficient)
        if not q:
            return ZERO
        mono = tuple(sorted((sym, k) for sym, k in powers.items() if k))
        return cls(((mono, q),))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Rational], ...]:
        """(monomial, coefficient) pairs in canonical order; a coefficient is
        an int when integral and a Fraction otherwise."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def symbols(self) -> frozenset[Symbol]:
        syms = self._symbols
        if syms is None:
            syms = self._symbols = frozenset(
                sym for mono, _ in self._terms for sym, _ in mono
            )
        return syms

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
                c = c1 * c2
                acc[mono] = acc[mono] + c if mono in acc else c
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
        h = self._hash
        if h is None:
            h = self._hash = hash(self._terms)
        return h

    def __repr__(self):
        return f"Expr({format_expr(self)})"


ZERO = Expr.const(0)

# Most decimal digits in the numerator or denominator of a coefficient that
# ``format_expr`` renders. Python refuses to turn an int of more than 4,300
# digits into text. The parser holds what a system file writes to this bound
# where it forms a product or a power, and the algebra after it multiplies
# coefficients by small factors (exponents, degrees), which the margin
# covers. It is checked as a bit length: a value of at most
# MAX_COEFFICIENT_BITS bits has at most MAX_COEFFICIENT_DIGITS digits.
MAX_COEFFICIENT_DIGITS = 1000
MAX_COEFFICIENT_BITS = (10**MAX_COEFFICIENT_DIGITS).bit_length() - 1
COEFFICIENT_BOUND_MESSAGE = (
    f"coefficient beyond MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} digits"
)


def coefficient_bits(c: Rational) -> int:
    """Bit length of the larger of a coefficient's numerator and denominator."""
    if c.__class__ is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def format_expr(e: Expr, coords: tuple[str, ...] = ()) -> str:
    """Deterministic re-parseable rendering of a canonical expression.

    Factors print parameters first, then signals, time and jet coordinates,
    which matches conventional physics notation (k*x^2); rational
    coefficients render as p/q prefixes. Coordinates beyond the given names
    fall back to x, y, z, x3, ...

    Canonical order is by kind: time, coordinates, velocities,
    accelerations, then parameters and signals. The display order of a
    monomial is that order rotated so its parameters and signals come
    first, with no sort. Each factor's text is computed once per call.

    Raises MechError for a coefficient beyond MAX_COEFFICIENT_DIGITS.
    """
    if e.is_zero:
        return "0"
    first = SymbolKind.PARAM
    names: dict = {}
    parts = []
    for mono, c in e.terms:
        head, tail = [], []
        for pair in mono:
            s = names.get(pair)
            if s is None:
                sym, exp = pair
                s = sym.display(coords)
                if exp != 1:
                    s = f"{s}^{exp}"
                names[pair] = s
            (head if pair[0].kind >= first else tail).append(s)
        body = "*".join(head + tail if tail else head)
        if coefficient_bits(c) > MAX_COEFFICIENT_BITS:
            raise MechError(COEFFICIENT_BOUND_MESSAGE)
        num, den = c.numerator, c.denominator
        if num < 0:
            sign = " - " if parts else "-"
            num = -num
        else:
            sign = " + " if parts else ""
        if den != 1:
            parts.append(f"{sign}{num}/{den}*{body}" if body else f"{sign}{num}/{den}")
        elif num != 1:
            parts.append(f"{sign}{num}*{body}" if body else f"{sign}{num}")
        else:
            parts.append(sign + (body or "1"))
    return "".join(parts)


# ---------------------------------------------------------------------------
# differentiation and substitution
# ---------------------------------------------------------------------------


def _power_rule(e: Expr, s: Symbol) -> Expr:
    """d/ds treating s as an independent variable (no chain rule).

    Dropping or lowering the power of s maps distinct monomials to distinct
    monomials, so each term holding s gives one term of the result, with no
    sum to form; only their order can change.
    """
    terms = []
    for mono, c in e.terms:
        for k, (sym, exp) in enumerate(mono):
            if sym == s:
                if exp == 1:
                    terms.append((mono[:k] + mono[k + 1 :], c))
                else:
                    new = mono[:k] + ((sym, exp - 1),) + mono[k + 1 :]
                    terms.append((new, _canonical(c * exp)))
                break
    terms.sort()
    return Expr(tuple(terms))


def partial(e: Expr, s: Symbol) -> Expr:
    """Exact partial derivative.

    Differentiation with respect to time applies the chain rule to signal
    symbols (each order-k signal symbol contributes its order-(k+1)
    companion); differentiating with respect to a signal symbol itself is
    undefined, since signals are functions of time, not independent
    variables. The result is ZERO, with no term visited, when ``e`` holds
    neither ``s`` nor, for time, any signal.
    """
    if s.kind == SymbolKind.SIGNAL:
        raise DifferentiationError(
            f"cannot differentiate with respect to signal '{s.signal.name}'"
        )
    syms = e.symbols()
    sig_syms = ()
    if s.kind == SymbolKind.TIME:
        sig_syms = [sym for sym in syms if sym.kind == SymbolKind.SIGNAL]
    if s not in syms and not sig_syms:
        return ZERO
    result = _power_rule(e, s)
    for sym in sig_syms:
        bumped = signal_symbol(sym.signal, sym.order + 1)
        result = result + _power_rule(e, sym) * Expr.var(bumped)
    return result


def times_symbol(mono: Monomial, s: Symbol) -> Monomial:
    """The canonical monomial ``mono * s``."""
    for k, pair in enumerate(mono):
        sym = pair[0]
        if sym < s:
            continue
        if sym == s:
            return mono[:k] + ((s, pair[1] + 1),) + mono[k + 1 :]
        return mono[:k] + ((s, 1),) + mono[k:]
    return mono + ((s, 1),)


# Signal symbols met by a walk, and the symbols one derivative above them.
# A signal symbol's hash hashes the signal's shape, and building a symbol
# checks its fields, so each is built once; signals come from system files,
# so the cache is bounded.


@lru_cache(maxsize=1024)
def next_order(sym: Symbol) -> Symbol:
    """The time derivative of a signal symbol: the same signal one order up."""
    return signal_symbol(sym.signal, sym.order + 1)


def jet_partials(e: Expr, with_time: bool = True) -> dict[Symbol, Expr]:
    """Every nonzero partial derivative of ``e``, from one walk over its
    terms: {s: partial(e, s)} for each jet coordinate ``s`` that ``e``
    holds, and for time unless ``with_time`` is false.

    A factor ``s^k`` of a term gives ``k * s^(k-1)`` times the rest of the
    term to the partial by ``s``; a signal factor gives it, times the signal
    one order up, to the partial by time (the chain rule). Parameters are
    constants. As in ``_power_rule``, the terms of a coordinate's partial
    are distinct and only need sorting; the time partial's may meet, so
    they are summed first.

    The vertical partials (``with_time=False``) are kept on ``e`` the first
    time they are taken, and the same map is returned after that: callers
    read it and must not change it.
    """
    if with_time:
        return _partials(e, True)
    parts = e._partials
    if parts is None:
        parts = e._partials = _partials(e, False)
    return parts


def _partials(e: Expr, with_time: bool) -> dict[Symbol, Expr]:
    """``jet_partials(e, with_time)``, from a walk over the terms of ``e``."""
    lists: dict = {}
    time: dict = {}
    for mono, c in e.terms:
        for k, (sym, exp) in enumerate(mono):
            kind = sym.kind
            if kind == _PARAM:
                continue
            in_time = kind == _TIME or kind == _SIGNAL
            if in_time and not with_time:
                continue
            if exp == 1:
                rest, q = mono[:k] + mono[k + 1 :], c
            else:
                rest, q = mono[:k] + ((sym, exp - 1),) + mono[k + 1 :], _canonical(c * exp)
            if in_time:
                if kind == _SIGNAL:
                    rest = times_symbol(rest, next_order(sym))
                time[rest] = time[rest] + q if rest in time else q
                continue
            terms = lists.get(sym)
            if terms is None:
                lists[sym] = [(rest, q)]
            else:
                terms.append((rest, q))
    parts = {s: Expr(tuple(sorted(terms))) for s, terms in lists.items()}
    if time:
        part = Expr.from_map(time)
        if part._terms:
            parts[TAU] = part
    return parts


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


# ---------------------------------------------------------------------------
# the scaling integral
# ---------------------------------------------------------------------------

def scaling_integral(e: Expr, weight: int = 0) -> Expr:
    """Integrate s^weight * e(t, s*x, s*v) over s in [0, 1], exactly.

    Coordinates and velocities are scaled by s; time, signals and parameters
    never are, so a term of fiber degree d picks up the factor
    1/(d+weight+1). The weight powers the homotopy operators on higher form
    degrees. Each term keeps its monomial, so the result keeps the canonical
    order of ``e``.
    """
    terms = []
    for mono, c in e.terms:
        k = sum(exp for sym, exp in mono if sym.kind in (SymbolKind.COORD, SymbolKind.VEL))
        k += weight + 1
        if k == 1:
            q = c
        elif c.__class__ is int and c % k == 0:
            q = c // k
        else:
            q = Fraction(c, k)
        terms.append((mono, q))
    return Expr(tuple(terms))


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
    power: str = "{}**{}",
    time_factor: Callable[[str], str] | None = None,
) -> str:
    """Python source of one expression, with parameters bound as literals.

    ``t`` names the time variable; ``x`` and ``v`` are format templates that
    name coordinate ``i`` of each kind, an acceleration is ``a[i]``, and
    ``power`` is the template of a factor's base and its exponent above 1.
    Signals call ``sin`` and ``cos``, which the caller's namespace supplies.
    Raises UnboundSymbolError for parameters missing from ``params``.

    A term leaves out the factors that change nothing: a coefficient whose
    literal is ``1.0``, one of ``-1.0`` (a unary minus on the first factor
    left instead) and a parameter whose literal is ``1.0``. Multiplying by
    1.0 is exact and by -1.0 is the exact negation, so the value is the
    unfolded product's bit for bit, up to the sign of a NaN. A literal base
    that begins with ``-`` is parenthesized, so ``(-2.0)**2`` squares the
    negative number.

    ``time_factor``, when given, receives the source of each factor that
    reads time only, a signal or a power of t above 1, and returns the
    source emitted in its place: a name bound to the same value leaves every
    float operation as it was.
    """
    pieces = []
    for mono, c in e.terms:
        coefficient = _float_lit(c)
        factors = []
        for sym, exp in mono:
            if sym.kind == SymbolKind.TIME:
                base = t
            elif sym.kind == SymbolKind.COORD:
                base = x.format(sym.index)
            elif sym.kind == SymbolKind.VEL:
                base = v.format(sym.index)
            elif sym.kind == SymbolKind.ACC:
                base = f"a[{sym.index}]"
            elif sym.kind == SymbolKind.PARAM:
                if sym.name not in params:
                    raise UnboundSymbolError(f"parameter '{sym.name}' has no value")
                base = repr(float(params[sym.name]))
                if base == "1.0":
                    continue
            else:
                base = _signal_code(sym, t)
            if base.startswith("-"):
                base = f"({base})"
            factor = base if exp == 1 else power.format(base, exp)
            if time_factor is not None and (
                sym.kind == SymbolKind.SIGNAL or (sym.kind == SymbolKind.TIME and exp > 1)
            ):
                factor = time_factor(factor)
            factors.append(factor)
        if not factors or coefficient not in ("1.0", "-1.0"):
            factors.insert(0, coefficient)
        elif coefficient == "-1.0":
            factors[0] = "-" + factors[0]
        pieces.append("*".join(factors))
    return " + ".join(pieces) if pieces else "0.0"


def compile_expr(e: Expr, params: Mapping[str, float]) -> Callable:
    """Compile to ``f(t, x, v, a=None)`` with parameters bound as constants.

    ``x``, ``v``, ``a`` are indexable by coordinate, and every slot accepts
    numpy arrays; sin/cos are numpy's. An expression of parameters and
    constants only, such as a constant mass entry, calls neither, so it
    evaluates to a Python float. Raises UnboundSymbolError for parameters
    missing from ``params``. Each call compiles afresh and keeps nothing.
    """
    return _compiled([f"return {expr_source(e, params)}"])


def compile_exprs(exprs: Sequence[Expr], params: Mapping[str, float]) -> Callable:
    """``compile_expr`` of several expressions as one generator function,
    from one ``exec``: ``f(t, x, v, a=None)`` yields their values in order,
    each computed as ``compile_expr`` of it computes it, and each only when
    it is asked for, so a caller that takes one value at a time holds one
    at a time. Each distinct time-only factor (a signal, or a power of t
    above 1) is bound to a name ``T_k`` once per call, before the first
    value, and read from there by every expression that has it."""
    terms: dict = {}  # a time-only factor's source: its name

    def bind(factor: str) -> str:
        return terms.setdefault(factor, f"T_{len(terms)}")

    values = [f"yield {expr_source(e, params, time_factor=bind)}" for e in exprs]
    lines = [f"{name} = {factor}" for factor, name in terms.items()] + values
    return _compiled(lines or ["yield from ()"])


def _compiled(lines: Sequence[str]) -> Callable:
    """``def compiled(t, x, v, a=None)`` with the given body lines, and
    numpy's sin and cos."""
    namespace = {"sin": np.sin, "cos": np.cos}
    src = "def compiled(t, x, v, a=None):\n" + "".join(f"    {line}\n" for line in lines)
    exec(src, namespace)  # noqa: S102 - source is generated locally
    return namespace["compiled"]

