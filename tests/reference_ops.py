"""The jet operators as compositions of ``partial`` and ``Expr`` arithmetic,
and ``verify``'s case generators as calls of ``random.Random``'s methods.

``spencer`` and ``formcalc`` apply each operator in one walk over the terms
of its input, and take the difference of one-forms in one map per
component; the homotopy scales the radius contraction in the walk that
forms it, and the dual-Spencer residuals subtract the walk of each momentum
from a map of its force. ``verify`` draws its cases with ``getrandbits`` and the
rejection loop ``Random._randbelow`` runs. These are the compositions and
the generators they replace, kept verbatim but for names: the tests
compare the two on seeded inputs, terms and coefficient types included,
and, for the generators, the state they leave the generator in.

``interior_radius`` is the one-walk radius contraction ``formcalc`` held
while a program path called it; its tests still run against it here.
"""

from __future__ import annotations

import random
from fractions import Fraction

from jetmech.formcalc import (
    Decomposition,
    TwoForm,
    VerticalOneForm,
    _check_acceleration_free,
    _oriented,
)
from jetmech.spencer import EquationsOfMotion
from jetmech.symexpr import (
    TAU,
    Expr,
    SymbolKind,
    ZERO,
    acc,
    coord,
    param,
    partial,
    scaling_integral,
    signal_symbol,
    times_symbol,
    vel,
)
from jetmech.verify import _SIGNAL_POOL


def reference_total_time_derivative(e: Expr) -> Expr:
    """Total derivative along sections: d/dt + v^j d/dx^j + a^j d/dv^j."""
    if e.contains_kind(SymbolKind.ACC):
        raise ValueError("total time derivative input must be acceleration-free")
    out = partial(e, TAU)
    n = e.max_coordinate_index() + 1
    for j in range(n):
        out = out + partial(e, coord(j)) * Expr.var(vel(j))
        out = out + partial(e, vel(j)) * Expr.var(acc(j))
    return out


def reference_variational_derivative(lagrangian: Expr, n: int | None = None) -> tuple[Expr, ...]:
    """Euler-Lagrange components dL/dx^i - d/dt(dL/dv^i)."""
    if lagrangian.contains_kind(SymbolKind.ACC):
        raise ValueError("Lagrangian must be acceleration-free")
    if n is None:
        n = max(lagrangian.max_coordinate_index() + 1, 1)
    return tuple(
        partial(lagrangian, coord(i))
        - reference_total_time_derivative(partial(lagrangian, vel(i)))
        for i in range(n)
    )


def reference_d0(e: Expr, n: int | None = None) -> VerticalOneForm:
    """Vertical part of the exterior derivative of a function on the 1-jet space."""
    _check_acceleration_free(e, "d0 input")
    top = e.max_coordinate_index()
    if n is None:
        n = max(top + 1, 1)
    build = VerticalOneForm._valid if top < n else VerticalOneForm
    return build(
        tuple(partial(e, coord(i)) for i in range(n)),
        tuple(partial(e, vel(i)) for i in range(n)),
    )


def reference_d1(omega: VerticalOneForm) -> TwoForm:
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


def reference_interior_radius(omega: VerticalOneForm) -> Expr:
    """Contraction with the radius field: sum_i F_i x^i + Pi_i v^i."""
    out = ZERO
    for b, e in omega.components():
        out = out + e * Expr.var(b)
    return out


def interior_radius(omega: VerticalOneForm) -> Expr:
    """Contraction with the radius field in one walk over the terms, as
    ``formcalc`` had it while a program path called it."""
    terms: dict = {}
    for b, e in omega.components():
        for mono, c in e.terms:
            m = times_symbol(mono, b)
            terms[m] = terms[m] + c if m in terms else c
    return Expr.from_map(terms)


def reference_homotopy(omega: VerticalOneForm) -> Expr:
    """Poincare contraction of a vertical one-form into a function."""
    return scaling_integral(reference_interior_radius(omega), weight=-1)


def reference_dual_spencer(phi: VerticalOneForm) -> EquationsOfMotion:
    """Dynamical residuals R_i = F_i - d(Pi_i)/dt."""
    return EquationsOfMotion(
        tuple(phi.F[i] - reference_total_time_derivative(phi.Pi[i]) for i in range(phi.n))
    )


def reference_homotopy_two_form(eta: TwoForm, n: int) -> VerticalOneForm:
    """Fiber homotopy on two-forms; dt^... blocks land in the dt slot and drop."""
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


def reference_reconstruction_residual(dec: Decomposition, phi: VerticalOneForm) -> VerticalOneForm:
    """phi minus (vertical part of d(L) plus anti-exact part); zero iff exact."""
    return phi + -(reference_d0(dec.lagrangian, n=phi.n) + dec.anti_exact)


def reference_random_expr(
    rng: random.Random,
    n: int,
    max_degree: int = 4,
    max_terms: int = 4,
    with_time: bool = True,
    with_signal: bool = False,
) -> Expr:
    """Random canonical polynomial over the jet vocabulary."""
    pool = [param("p"), param("q")]
    pool += [coord(i) for i in range(n)] + [vel(i) for i in range(n)]
    if with_time:
        pool.append(TAU)
    if with_signal:
        pool.append(signal_symbol(_SIGNAL_POOL))
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        powers: dict = {}
        for _ in range(rng.randint(0, max_degree)):
            sym = rng.choice(pool)
            powers[sym] = powers.get(sym, 0) + 1
        mono = tuple(sorted(powers.items()))
        num = rng.randint(-6, 6) or 1
        den = rng.randint(1, 3)
        q = num // den if num % den == 0 else Fraction(num, den)
        terms[mono] = terms[mono] + q if mono in terms else q
    return Expr.from_map(terms)


def reference_random_vertical_form(
    rng: random.Random, n: int, with_time: bool = True, with_signal: bool = True
) -> VerticalOneForm:
    def make() -> Expr:
        return reference_random_expr(
            rng,
            n,
            max_degree=rng.randint(0, 4),
            max_terms=3,
            with_time=with_time,
            with_signal=with_signal and rng.random() < 0.3,
        )

    return VerticalOneForm(
        tuple(make() for _ in range(n)), tuple(make() for _ in range(n))
    )
