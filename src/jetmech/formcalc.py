"""Differential forms on the first-order jet space (coordinates t, x^i, v^i).

Provides the exterior derivative of functions (its vertical part) and of
vertical one-forms, the interior product with the radius field, the
homotopy (Poincare contraction) operator, and the exact/anti-exact
decomposition of a dynamical one-form into d(Lagrangian) plus a
homotopy-annulled remainder.

Decomposition works modulo dt components (the vertical quotient): the dt
part of an exact differential never contributes to dynamics, so one-forms
are compared and reconstructed through their dx/dv components only. The
homotopy operator contracts along the fiber radius x d/dx + v d/dv with
time held fixed; this is the unique convention for which the contraction
identity and the annulment of the remainder hold exactly on the vertical
quotient, for arbitrary polynomial components including time-dependent
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AdmissibilityError, ReconstructionError
from .symexpr import (
    TAU,
    Expr,
    Symbol,
    SymbolKind,
    ZERO,
    coord,
    format_expr,
    partial,
    scaling_integral,
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
    """F_i dx^i + Pi_i dv^i with no dt component and acceleration-free parts."""

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
        return VerticalOneForm(
            tuple(a + b for a, b in zip(self.F, other.F)),
            tuple(a + b for a, b in zip(self.Pi, other.Pi)),
        )

    def __neg__(self) -> "VerticalOneForm":
        return VerticalOneForm(tuple(-e for e in self.F), tuple(-e for e in self.Pi))

    def __sub__(self, other: "VerticalOneForm") -> "VerticalOneForm":
        return self + (-other)

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

    def coefficient(self, b1: Symbol, b2: Symbol) -> Expr:
        """Coefficient of db1 ^ db2, with antisymmetry applied."""
        oriented = _oriented(b1, b2)
        if oriented is None:
            return ZERO
        key, sign = oriented
        for pair, e in self.coeffs:
            if pair == key:
                return e if sign == 1 else -e
        return ZERO

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def fiber_block_is_zero(self) -> bool:
        """True when every dx^dx, dx^dv, dv^dv coefficient vanishes."""
        return all(b1 == TAU for (b1, _), _ in self.coeffs)


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
    every use of d0 works on the vertical quotient.
    """
    _check_acceleration_free(e, "d0 input")
    if n is None:
        n = max(e.max_coordinate_index() + 1, 1)
    return VerticalOneForm(
        tuple(partial(e, coord(i)) for i in range(n)),
        tuple(partial(e, vel(i)) for i in range(n)),
    )


def d1(omega: VerticalOneForm) -> TwoForm:
    """Exterior derivative of a vertical one-form, collected antisymmetrically."""
    basis = [TAU, *(b for b, _ in omega.components())]
    acc: dict = {}
    for target, component in omega.components():
        for b in basis:
            e = partial(component, b)
            oriented = _oriented(b, target)
            if e.is_zero or oriented is None:
                continue
            key, sign = oriented
            acc[key] = acc.get(key, ZERO) + (e if sign == 1 else -e)
    return TwoForm.from_dict(acc)


# ---------------------------------------------------------------------------
# radius contraction and homotopy
# ---------------------------------------------------------------------------


def interior_radius(omega: VerticalOneForm) -> Expr:
    """Contraction with the radius field: sum_i F_i x^i + Pi_i v^i."""
    out = ZERO
    for b, e in omega.components():
        out = out + e * Expr.var(b)
    return out


def _require_admissible(omega: VerticalOneForm):
    for e in (*omega.F, *omega.Pi):
        for sym in e.symbols():
            if sym.kind == SymbolKind.SIGNAL and not sym.signal.admissible:
                raise AdmissibilityError(sym.signal.name)


def homotopy(omega: VerticalOneForm) -> Expr:
    """Poincare contraction of a vertical one-form into a function.

    Integrates the components along the fiber ray (s*x, s*v) against the
    unscaled radius: H(omega) = sum_i [int_0^1 F_i(t, s x, s v) ds] x^i +
    [int_0^1 Pi_i(t, s x, s v) ds] v^i. The result vanishes at the fiber
    origin x = v = 0. Sinusoid signals are refused (admissibility contract).
    """
    _require_admissible(omega)
    out = ZERO
    for b, e in omega.components():
        out = out + scaling_integral(e) * Expr.var(b)
    return out


def homotopy_two_form(eta: TwoForm, n: int) -> VerticalOneForm:
    """Fiber homotopy on two-forms; dt^... blocks land in the dt slot and drop.

    For a fiber block coefficient a at dy^i ^ dy^j, contributes
    [int_0^1 s a(t, s x, s v) ds] (y^i dy^j - y^j dy^i).
    """
    comps: dict = {}
    for (b1, b2), a in eta.coeffs:
        if b1 == TAU:
            continue
        a_int = scaling_integral(a, weight=1)
        comps[b2] = comps.get(b2, ZERO) + a_int * Expr.var(b1)
        comps[b1] = comps.get(b1, ZERO) - a_int * Expr.var(b2)
    return VerticalOneForm(
        tuple(comps.get(coord(i), ZERO) for i in range(n)),
        tuple(comps.get(vel(i), ZERO) for i in range(n)),
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
    """phi minus (vertical part of d(L) plus anti-exact part); zero iff exact."""
    return phi - (d0(dec.lagrangian, n=phi.n) + dec.anti_exact)


def accept_user_split(
    lagrangian: Expr, anti_exact: VerticalOneForm, phi: VerticalOneForm
) -> Decomposition:
    """Validate a physically-motivated split against the source form.

    The split need not be homotopy-annulled (the canonical one is), but the
    vertical part of d(L) plus the declared remainder must rebuild phi
    exactly; otherwise the residual one-form is reported.
    """
    dec = Decomposition(lagrangian, anti_exact, mode="user-declared")
    check_reconstruction(dec, phi)
    return dec


def check_reconstruction(dec: Decomposition, phi: VerticalOneForm):
    """Raise ReconstructionError, naming the residual one-form, unless the
    split rebuilds phi exactly."""
    residual = reconstruction_residual(dec, phi)
    if not residual.is_zero:
        raise ReconstructionError(
            residual,
            "split reconstruction residual: " + format_one_form(residual),
        )


def format_one_form(omega: VerticalOneForm, coords: tuple[str, ...] = ()) -> str:
    """Readable rendering like '(-b*x' + sig(f)) dx + m*x' dx''."""
    parts = [
        f"({format_expr(e, coords)}) d{b.display(coords)}"
        for b, e in omega.components()
        if not e.is_zero
    ]
    return " + ".join(parts) if parts else "0"


def format_two_form(eta: TwoForm, coords: tuple[str, ...] = ()) -> str:
    parts = [
        f"({format_expr(e, coords)}) d{b1.display(coords)}^d{b2.display(coords)}"
        for (b1, b2), e in eta.coeffs
    ]
    return " + ".join(parts) if parts else "0"
