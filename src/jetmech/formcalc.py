"""Differential forms on the first-order jet space (coordinates t, x^i, v^i).

Provides the exterior derivative of functions (its vertical part) and of
vertical one-forms, the interior product with the radius field, the
homotopy (Poincare contraction) operator, which integrates that interior
product along the fiber ray, and the exact/anti-exact decomposition of a
dynamical one-form into d(Lagrangian) plus a homotopy-annulled remainder.

Decomposition works modulo dt components (the vertical quotient): the dt
part of an exact differential never contributes to dynamics, so one-forms
are compared and reconstructed through their dx/dv components only. The
homotopy operator contracts along the fiber radius x d/dx + v d/dv with
time held fixed; this is the unique convention for which the contraction
identity and the annulment of the remainder hold exactly on the vertical
quotient, for arbitrary polynomial components including time-dependent
ones.

Each operator walks the terms of its input once. The exterior derivatives
are derivations, applied by the Leibniz rule on the generators: every
partial of a component, the time partial with the signal chain rule, comes
from one walk (``symexpr.jet_partials``). The radius contraction and the
two-form homotopy place each term of a component once; ``homotopy`` scales
the radius contraction in the same walk, and ``homotopy_of_d1`` places the
two-form homotopy of ``d1`` straight from the terms of the one-form, with
no two-form between. Terms are collected in
one {monomial: coefficient} map per output, which is made canonical once,
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AdmissibilityError, ReconstructionError
from .symexpr import (
    _COORD,
    _SIGNAL,
    _VEL,
    TAU,
    Expr,
    Symbol,
    SymbolKind,
    ZERO,
    coord,
    format_expr,
    jet_partials,
    scaling_integral,
    times_symbol,
    vel,
)


def _check_acceleration_free(e: Expr, what: str):
    if e.contains_kind(SymbolKind.ACC):
        raise ValueError(f"{what} must not contain acceleration symbols")


# ---------------------------------------------------------------------------
# form types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerticalOneForm:
    """F_i dx^i + Pi_i dv^i with no dt component and acceleration-free parts.

    Construction checks both; the sum, difference and negation of valid
    forms of one ``n`` are valid by construction and skip the check.
    Forms known to be valid are built by ``_valid``.
    """

    F: tuple[Expr, ...]
    Pi: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.F) != len(self.Pi):
            raise ValueError("F and Pi must have the same length")
        n = len(self.F)
        for e in (*self.F, *self.Pi):
            _check_acceleration_free(e, "one-form components")
            if e.max_coordinate_index() >= n:
                raise ValueError("component references a coordinate index >= n")

    @classmethod
    def _valid(cls, F: tuple[Expr, ...], Pi: tuple[Expr, ...]) -> "VerticalOneForm":
        """The form (F, Pi), built without the check; the components must
        already satisfy it."""
        form = object.__new__(cls)
        object.__setattr__(form, "F", F)
        object.__setattr__(form, "Pi", Pi)
        return form

    @property
    def n(self) -> int:
        return len(self.F)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in (*self.F, *self.Pi))

    @classmethod
    def zero(cls, n: int) -> "VerticalOneForm":
        return cls((ZERO,) * n, (ZERO,) * n)

    def __add__(self, other: "VerticalOneForm") -> "VerticalOneForm":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return VerticalOneForm._valid(
            tuple(a + b for a, b in zip(self.F, other.F)),
            tuple(a + b for a, b in zip(self.Pi, other.Pi)),
        )

    def __neg__(self) -> "VerticalOneForm":
        return VerticalOneForm._valid(tuple(-e for e in self.F), tuple(-e for e in self.Pi))

    def __sub__(self, other: "VerticalOneForm") -> "VerticalOneForm":
        return self.minus(other)

    def minus(self, *others: "VerticalOneForm") -> "VerticalOneForm":
        """This form minus the sum of ``others``, forms of the same ``n``.

        Each component is collected in one {monomial: coefficient} map, made
        canonical once. A coefficient is kept there as an unreduced
        (numerator, denominator) pair and reduced once, at the end, instead
        of once per ``Fraction`` operation. The terms, and the coefficient
        types, are those of the sums and negations it replaces.
        """
        for other in others:
            if other.n != self.n:
                raise ValueError("dimension mismatch")

        def component(own: Expr, *parts: Expr) -> Expr:
            acc = {mono: (c.numerator, c.denominator) for mono, c in own.terms}
            for part in parts:
                for mono, c in part.terms:
                    num, den = c.numerator, c.denominator
                    if mono not in acc:
                        acc[mono] = (-num, den)
                        continue
                    n0, d0 = acc[mono]
                    acc[mono] = (n0 - num, den) if d0 == den else (n0 * den - num * d0, d0 * den)
            return Expr.from_pairs(acc)

        return VerticalOneForm._valid(
            tuple(map(component, self.F, *(o.F for o in others))),
            tuple(map(component, self.Pi, *(o.Pi for o in others))),
        )

    def components(self):
        """(basis symbol, component) pairs: (x^i, F_i) then (v^i, Pi_i), per i."""
        for i in range(self.n):
            yield coord(i), self.F[i]
            yield vel(i), self.Pi[i]


def _oriented(b1: Symbol, b2: Symbol):
    """(key, sign) of db1 ^ db2 on the ordered basis, or None when b1 == b2."""
    if b1 == b2:
        return None
    return ((b1, b2), 1) if b1 < b2 else ((b2, b1), -1)


@dataclass(frozen=True)
class TwoForm:
    """Exterior 2-form stored on the ordered basis; absent keys are zero.

    Basis covectors are keyed by the jet symbols TAU, coord(i) and vel(i);
    the ``Symbol`` tuple order puts dt < dx^0 < ... < dx^{n-1} < dv^0 < ...
    and keys are strictly ordered pairs.
    """

    coeffs: tuple[tuple[tuple[Symbol, Symbol], Expr], ...]

    @classmethod
    def from_dict(cls, data: dict) -> "TwoForm":
        items = tuple(sorted((pair, e) for pair, e in data.items() if not e.is_zero))
        for (b1, b2), _ in items:
            if not b1 < b2:
                raise ValueError("two-form keys must be strictly ordered pairs")
        return cls(items)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class Decomposition:
    """A Lagrangian plus the anti-exact remainder of a dynamical one-form.

    ``canonical-homotopy`` decompositions satisfy homotopy(anti_exact) = 0
    exactly; ``user-declared`` ones only promise exact reconstruction.
    """

    lagrangian: Expr
    anti_exact: VerticalOneForm
    mode: str  # "canonical-homotopy" | "user-declared"


# ---------------------------------------------------------------------------
# exterior derivatives
# ---------------------------------------------------------------------------


def d0(e: Expr, n: int | None = None) -> VerticalOneForm:
    """Vertical part of the exterior derivative of a function on the 1-jet space.

    The dt component is not formed: it never contributes to dynamics, and
    every use of d0 works on the vertical quotient. When ``e`` holds no
    coordinate index >= ``n``, neither do its partials, so the result is
    built without the one-form check; otherwise the check raises.
    """
    # a jet coordinate is in e iff its partial is
    partials = jet_partials(e, with_time=False)
    if any(s.kind == SymbolKind.ACC for s in partials):
        raise ValueError("d0 input must not contain acceleration symbols")
    top = max((s.index for s in partials), default=-1)
    if n is None:
        n = max(top + 1, 1)
    build = VerticalOneForm._valid if top < n else VerticalOneForm
    return build(
        tuple(partials.get(coord(i), ZERO) for i in range(n)),
        tuple(partials.get(vel(i), ZERO) for i in range(n)),
    )


def d1(omega: VerticalOneForm) -> TwoForm:
    """Exterior derivative of a vertical one-form, collected antisymmetrically."""
    acc: dict = {}
    for target, component in omega.components():
        for b, part in jet_partials(component).items():
            oriented = _oriented(b, target)
            if oriented is None:
                continue
            key, sign = oriented
            terms = acc.get(key)
            if terms is None:
                terms = acc[key] = {}
            for mono, c in part.terms:
                if sign < 0:
                    c = -c
                terms[mono] = terms[mono] + c if mono in terms else c
    return TwoForm.from_dict({key: Expr.from_map(terms) for key, terms in acc.items()})


# ---------------------------------------------------------------------------
# radius contraction and homotopy
# ---------------------------------------------------------------------------


def _require_admissible(omega: VerticalOneForm):
    """Raise AdmissibilityError naming the first sinusoid signal in the
    terms of omega. The terms are read as they stand: a symbol set built
    only for this check would hash every symbol for nothing, and its order
    would follow the hash seed."""
    for e in (*omega.F, *omega.Pi):
        for mono, _ in e.terms:
            for sym, _ in mono:
                if sym.kind == _SIGNAL and not sym.signal.admissible:
                    raise AdmissibilityError(sym.signal.name)


def homotopy(omega: VerticalOneForm) -> Expr:
    """Poincare contraction of a vertical one-form into a function.

    Integrates the components along the fiber ray (s*x, s*v) against the
    unscaled radius: H(omega) = sum_i [int_0^1 F_i(t, s x, s v) ds] x^i +
    [int_0^1 Pi_i(t, s x, s v) ds] v^i. That is the radius contraction
    sum_i F_i x^i + Pi_i v^i integrated along the ray with weight -1: a
    term of fiber degree d in a component has degree d + 1 in the
    contraction and gets the factor 1/(d + 1). Both are one walk: each
    summed coefficient of the contraction is divided by its degree once.
    The result vanishes at the fiber origin x = v = 0. Sinusoid signals are
    refused (admissibility contract) before any term is placed.
    """
    _require_admissible(omega)
    # each term c*m of the component at y^i goes to m*y^i, as an unreduced
    # (numerator, denominator) pair whose denominator carries the fiber
    # degree of m*y^i; every term placed at one monomial has that degree
    acc: dict = {}
    for b, e in omega.components():
        for mono, c in e.terms:
            degree = 1
            for sym, exp in mono:
                kind = sym.kind
                if kind == _COORD or kind == _VEL:
                    degree += exp
            m = times_symbol(mono, b)
            num, den = c.numerator, c.denominator * degree
            if m in acc:
                n0, d0 = acc[m]
                acc[m] = (n0 + num, den) if d0 == den else (n0 * den + num * d0, d0 * den)
            else:
                acc[m] = (num, den)
    return Expr.from_pairs(acc)


def homotopy_two_form(eta: TwoForm, n: int) -> VerticalOneForm:
    """Fiber homotopy on two-forms; dt^... blocks land in the dt slot and drop.

    For a fiber block coefficient a at dy^i ^ dy^j, contributes
    [int_0^1 s a(t, s x, s v) ds] (y^i dy^j - y^j dy^i). The result is
    checked as a one-form of ``n`` coordinates.
    """
    comps: dict = {}
    for (b1, b2), a in eta.coeffs:
        if b1 == TAU:
            continue
        into1 = comps.get(b1)
        if into1 is None:
            into1 = comps[b1] = {}
        into2 = comps.get(b2)
        if into2 is None:
            into2 = comps[b2] = {}
        for mono, c in scaling_integral(a, weight=1).terms:
            m = times_symbol(mono, b1)
            into2[m] = into2[m] + c if m in into2 else c
            m = times_symbol(mono, b2)
            into1[m] = into1[m] - c if m in into1 else -c
    return VerticalOneForm(
        tuple(Expr.from_map(comps.get(coord(i), {})) for i in range(n)),
        tuple(Expr.from_map(comps.get(vel(i), {})) for i in range(n)),
    )


def homotopy_of_d1(phi: VerticalOneForm) -> VerticalOneForm:
    """``homotopy_two_form(d1(phi), phi.n)``, in one walk over the terms of phi.

    A term ``c*m`` of fiber degree d in the component at y^j gives, for each
    fiber factor (y^i)^e of m with y^i != y^j, the term ``e*c*m/y^i`` of the
    partial by y^i to the block dy^i ^ dy^j of d1(phi). The two-form
    homotopy scales it by 1/(d + 1), its own fiber degree plus 2, and places
    it at m in the y^j component and, negated, at (m/y^i)*y^j in the y^i
    component; so the y^j component gains ``(d - e_j)*c/(d + 1)`` at m,
    where e_j is the exponent of y^j in m. Time partials land in dt blocks,
    which the homotopy drops, so none is taken; nor is a two-form or a
    partial formed. Each component is collected in one map, keyed by its
    basis symbol, of unreduced (numerator, denominator) pairs reduced once,
    so the terms and coefficient types are those of the composition.
    """
    comps: dict = {}
    for target, e in phi.components():
        own = comps.get(target)
        if own is None:
            own = comps[target] = {}
        for mono, c in e.terms:
            degree = own_exp = 0
            for sym, exp in mono:
                kind = sym.kind
                if kind == _COORD or kind == _VEL:
                    degree += exp
                    if sym == target:
                        own_exp = exp
            if degree == own_exp:
                continue  # no fiber factor but y^j's own
            num, den = c.numerator, c.denominator * (degree + 1)
            q = num * (degree - own_exp)
            if mono in own:
                n0, d0 = own[mono]
                own[mono] = (n0 + q, den) if d0 == den else (n0 * den + q * d0, d0 * den)
            else:
                own[mono] = (q, den)
            for k, (sym, exp) in enumerate(mono):
                kind = sym.kind
                if (kind != _COORD and kind != _VEL) or sym == target:
                    continue
                if exp == 1:
                    rest, q = mono[:k] + mono[k + 1 :], num
                else:
                    rest, q = mono[:k] + ((sym, exp - 1),) + mono[k + 1 :], num * exp
                m = times_symbol(rest, target)
                into = comps.get(sym)
                if into is None:
                    comps[sym] = {m: (-q, den)}
                elif m in into:
                    n0, d0 = into[m]
                    into[m] = (n0 - q, den) if d0 == den else (n0 * den - q * d0, d0 * den)
                else:
                    into[m] = (-q, den)
    n = phi.n
    return VerticalOneForm._valid(
        tuple(Expr.from_pairs(comps.get(coord(i), {})) for i in range(n)),
        tuple(Expr.from_pairs(comps.get(vel(i), {})) for i in range(n)),
    )


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def decompose(phi: VerticalOneForm) -> Decomposition:
    """Split phi = d(L) + phi_a with H(phi_a) = 0, both exactly.

    L is the homotopy of phi; the remainder is phi minus the vertical part
    of dL. Raises AdmissibilityError when a sinusoid signal blocks the
    homotopy integral.
    """
    lagrangian = homotopy(phi)
    anti_exact = phi - d0(lagrangian, n=phi.n)
    return Decomposition(lagrangian, anti_exact, mode="canonical-homotopy")


def reconstruction_residual(dec: Decomposition, phi: VerticalOneForm) -> VerticalOneForm:
    """phi minus (vertical part of d(L) plus anti-exact part); zero iff exact.

    One walk of L for its partials (``d0``, with its checks), then one map
    per component of phi minus both parts.
    """
    return phi.minus(d0(dec.lagrangian, n=phi.n), dec.anti_exact)


def accept_user_split(
    lagrangian: Expr, anti_exact: VerticalOneForm, phi: VerticalOneForm
) -> Decomposition:
    """Validate a physically-motivated split against the source form.

    The split need not be homotopy-annulled (the canonical one is), but the
    vertical part of d(L) plus the declared remainder must rebuild phi
    exactly; otherwise ReconstructionError names the residual one-form.
    """
    dec = Decomposition(lagrangian, anti_exact, mode="user-declared")
    residual = reconstruction_residual(dec, phi)
    if not residual.is_zero:
        raise ReconstructionError(
            residual,
            "split reconstruction residual: " + format_one_form(residual),
        )
    return dec


def format_one_form(
    omega: VerticalOneForm, coords: tuple[str, ...] = (), texts: Sequence[str] | None = None
) -> str:
    """Readable rendering like '(-b*x' + sig(f)) dx + m*x' dx''. ``texts``,
    when given, are the components' ``format_expr`` renderings in
    ``components()`` order, which a caller that also reports them made."""
    if texts is None:
        texts = [format_expr(e, coords) for _, e in omega.components()]
    parts = [
        f"({text}) d{b.display(coords)}"
        for (b, e), text in zip(omega.components(), texts)
        if not e.is_zero
    ]
    return " + ".join(parts) if parts else "0"


def format_two_form(eta: TwoForm, coords: tuple[str, ...] = ()) -> str:
    parts = [
        f"({format_expr(e, coords)}) d{b1.display(coords)}^d{b2.display(coords)}"
        for (b1, b2), e in eta.coeffs
    ]
    return " + ".join(parts) if parts else "0"
