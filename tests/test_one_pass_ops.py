"""The one-pass jet operators equal the compositions they replace.

``total_time_derivative``, ``variational_derivative``, ``d0``, ``d1``,
``interior_radius``, ``homotopy``, ``dual_spencer`` and ``homotopy_two_form``
each walk the terms of their input once and make every output canonical
once (``interior_radius`` no program path calls; ``tests/reference_ops.py``
keeps its walk); ``reconstruction_residual`` and the difference of one-forms collect
each component in one map. ``tests/reference_ops.py``
keeps the compositions of ``partial`` and ``Expr`` arithmetic they replace.
On seeded inputs with n = 1..4, exponents up to 6, parameters and signals,
each operator must give the same terms as its reference, coefficient types
included, in canonical order. ``homotopy_of_d1`` must give the terms of
``homotopy_two_form(d1(phi), phi.n)``, which it fuses into one walk.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from jetmech import formcalc
from jetmech.errors import AdmissibilityError
from jetmech.formcalc import (
    Decomposition,
    TwoForm,
    VerticalOneForm,
    d0,
    d1,
    decompose,
    homotopy,
    homotopy_of_d1,
    homotopy_two_form,
    reconstruction_residual,
)
from jetmech.spencer import dual_spencer, total_time_derivative, variational_derivative
from jetmech.symexpr import (
    TAU,
    Expr,
    ZERO,
    acc,
    coord,
    jet_partials,
    next_order,
    partial,
    polynomial_signal,
    signal_symbol,
    sinusoid_signal,
    times_symbol,
    vel,
)
from jetmech.verify import random_expr, random_vertical_form
from reference_ops import (
    interior_radius,
    reference_d0,
    reference_d1,
    reference_dual_spencer,
    reference_homotopy,
    reference_homotopy_two_form,
    reference_interior_radius,
    reference_reconstruction_residual,
    reference_total_time_derivative,
    reference_variational_derivative,
)

CASES = 2000

_POLY = polynomial_signal("w", 2, Fraction(-1, 2), 0, Fraction(5, 3))
_SINE = sinusoid_signal("u", Fraction(3, 2), 2, Fraction(1, 3))


def draw_expr(rng: random.Random, n: int, sinusoids: bool) -> Expr:
    """A random polynomial over t, x^i, v^i, two parameters and, at random,
    signal factors of orders 0..2, with exponents up to 6."""
    e = random_expr(
        rng,
        n,
        max_degree=rng.randint(0, 6),
        max_terms=rng.randint(1, 5),
        with_signal=rng.random() < 0.3,
    )
    signals = [_POLY, _SINE] if sinusoids else [_POLY]
    for _ in range(rng.randint(0, 2)):
        factor = Expr.var(signal_symbol(rng.choice(signals), rng.randint(0, 2)))
        extra = random_expr(rng, n, max_degree=rng.randint(0, 3), max_terms=2)
        e = e + extra * factor ** rng.randint(1, 2)
    return e


def draw_form(rng: random.Random, n: int, sinusoids: bool) -> VerticalOneForm:
    if rng.random() < 0.5:
        return random_vertical_form(rng, n)
    return VerticalOneForm(
        tuple(draw_expr(rng, n, sinusoids) for _ in range(n)),
        tuple(draw_expr(rng, n, sinusoids) for _ in range(n)),
    )


def draw_two_form(rng: random.Random, n: int) -> TwoForm:
    """d1 of a random form, or a random two-form with dt blocks."""
    if rng.random() < 0.5:
        return d1(draw_form(rng, n, sinusoids=False))
    basis = [TAU, *(coord(i) for i in range(n)), *(vel(i) for i in range(n))]
    data = {}
    for _ in range(rng.randint(1, 4)):
        b1, b2 = sorted(rng.sample(basis, 2))
        data[(b1, b2)] = draw_expr(rng, n, sinusoids=False)
    return TwoForm.from_dict(data)


def assert_canonical(e: Expr):
    """Terms strictly ascending by monomial, each monomial's factors
    strictly ascending with positive exponents, and every coefficient
    nonzero: an int when integral, else a Fraction."""
    monos = [mono for mono, _ in e.terms]
    assert monos == sorted(set(monos))
    for mono, c in e.terms:
        syms = [sym for sym, _ in mono]
        assert syms == sorted(set(syms))
        assert all(exp.__class__ is int and exp > 0 for _, exp in mono)
        assert c != 0
        assert c.__class__ is int or (c.__class__ is Fraction and c.denominator != 1)


def same(a: Expr, b: Expr) -> bool:
    """Equal terms with equal coefficient types."""
    return [(m, c.__class__, c) for m, c in a.terms] == [
        (m, c.__class__, c) for m, c in b.terms
    ]


def assert_same_form(got: VerticalOneForm, want: VerticalOneForm):
    assert got.n == want.n
    for a, b in zip((*got.F, *got.Pi), (*want.F, *want.Pi)):
        assert_canonical(a)
        assert same(a, b)


def cases(salt: int):
    for case in range(CASES):
        rng = random.Random(salt * 1_000_003 + case)
        yield case, rng, rng.randint(1, 4)


def test_total_time_derivative_matches_reference():
    nonzero = 0
    for case, rng, n in cases(1):
        e = draw_expr(rng, n, sinusoids=True)
        got = total_time_derivative(e)
        assert_canonical(got)
        assert same(got, reference_total_time_derivative(e)), case
        nonzero += not got.is_zero
    assert nonzero > CASES * 3 // 4


def test_variational_derivative_matches_reference():
    for case, rng, n in cases(2):
        lagrangian = draw_expr(rng, n, sinusoids=True)
        width = rng.choice((None, n, n + 1))
        got = variational_derivative(lagrangian, width)
        want = reference_variational_derivative(lagrangian, width)
        assert len(got) == len(want), case
        for a, b in zip(got, want):
            assert_canonical(a)
            assert same(a, b), case


def test_d0_matches_reference():
    for case, rng, n in cases(3):
        e = draw_expr(rng, n, sinusoids=True)
        width = rng.choice((None, n, n + 1))
        assert_same_form(d0(e, width), reference_d0(e, width))


def test_d1_matches_reference():
    blocks = 0
    for case, rng, n in cases(4):
        omega = draw_form(rng, n, sinusoids=True)
        got, want = d1(omega), reference_d1(omega)
        assert [pair for pair, _ in got.coeffs] == [pair for pair, _ in want.coeffs], case
        for (_, a), (_, b) in zip(got.coeffs, want.coeffs):
            assert_canonical(a)
            assert same(a, b), case
        blocks += len(got.coeffs)
    assert blocks > CASES


def test_interior_radius_matches_reference():
    for case, rng, n in cases(5):
        omega = draw_form(rng, n, sinusoids=False)
        got = interior_radius(omega)
        assert_canonical(got)
        assert same(got, reference_interior_radius(omega)), case


def _signals(phi: VerticalOneForm) -> dict:
    """Whether phi holds time, a polynomial signal and a sinusoid."""
    syms = set().union(*(e.symbols() for e in (*phi.F, *phi.Pi)))
    return {
        "time": TAU in syms,
        "poly": any(s.signal is _POLY for s in syms),
        "sine": any(s.signal is _SINE for s in syms),
    }


def test_homotopy_matches_reference(monkeypatch):
    # a sinusoid is refused before a term is placed; every other form gives
    # the scaled radius contraction
    placed = []
    real = formcalc.times_symbol
    monkeypatch.setattr(formcalc, "times_symbol", lambda *a: placed.append(a) or real(*a))
    seen = {"time": 0, "poly": 0, "sine": 0}
    for case, rng, n in cases(10):
        omega = draw_form(rng, n, sinusoids=rng.random() < 0.5)
        held = _signals(omega)
        for key in seen:
            seen[key] += held[key]
        placed.clear()
        if held["sine"]:
            with pytest.raises(AdmissibilityError):
                homotopy(omega)
            assert placed == [], case
            continue
        got = homotopy(omega)
        assert_canonical(got)
        assert same(got, reference_homotopy(omega)), case
    assert seen["time"] > CASES // 2 and min(seen["poly"], seen["sine"]) > CASES // 5, seen


def test_homotopy_names_the_first_sinusoid_in_term_order():
    # the refusal reads the terms, not a symbol set whose order follows the
    # hash seed: the x term comes first, so it names b, not a
    x0, v0 = Expr.var(coord(0)), Expr.var(vel(0))
    late, early = (
        Expr.var(signal_symbol(sinusoid_signal(name, 1, omega, 0)))
        for name, omega in (("b", 1), ("a", 2))
    )
    phi = VerticalOneForm((late * x0 + early * v0,), (ZERO,))
    with pytest.raises(AdmissibilityError) as err:
        homotopy(phi)
    assert err.value.signal_name == "b"


def test_dual_spencer_matches_reference():
    seen = {"time": 0, "poly": 0, "sine": 0}
    for case, rng, n in cases(11):
        phi = draw_form(rng, n, sinusoids=True)
        for key, held in _signals(phi).items():
            seen[key] += held
        got = dual_spencer(phi).residuals
        want = reference_dual_spencer(phi).residuals
        assert len(got) == len(want) == n, case
        for a, b in zip(got, want):
            assert_canonical(a)
            assert same(a, b), case
    assert seen["time"] > CASES // 2 and min(seen["poly"], seen["sine"]) > CASES // 5, seen


def test_dual_spencer_refuses_an_acceleration():
    x0, a0 = Expr.var(coord(0)), Expr.var(acc(0))
    phi = VerticalOneForm._valid((x0,), (x0 * a0,))
    with pytest.raises(ValueError, match="acceleration-free"):
        dual_spencer(phi)
    with pytest.raises(ValueError, match="acceleration-free"):
        reference_dual_spencer(phi)


def test_homotopy_two_form_matches_reference():
    for case, rng, n in cases(6):
        eta = draw_two_form(rng, n)
        assert_same_form(homotopy_two_form(eta, n), reference_homotopy_two_form(eta, n))


def test_homotopy_of_d1_is_the_composition():
    # n = 1..3; forms with time, polynomial and sinusoid signals of orders
    # 0..2, and verify's own draws
    seen = {"time": 0, "poly": 0, "sine": 0, "zero": 0}
    for case in range(CASES):
        rng = random.Random(9 * 1_000_003 + case)
        n = rng.randint(1, 3)
        phi = draw_form(rng, n, sinusoids=rng.random() < 0.5)
        got = homotopy_of_d1(phi)
        assert_same_form(got, homotopy_two_form(d1(phi), n))
        syms = set().union(*(e.symbols() for e in (*phi.F, *phi.Pi)))
        seen["time"] += TAU in syms
        seen["poly"] += any(s.signal is _POLY for s in syms)
        seen["sine"] += any(s.signal is _SINE for s in syms)
        seen["zero"] += got.is_zero
    assert seen["time"] > CASES // 2, seen
    assert min(seen["poly"], seen["sine"]) > CASES // 5 > seen["zero"], seen


def test_homotopy_two_form_checks_what_is_not_a_differential(monkeypatch):
    x1, a0 = Expr.var(coord(1)), Expr.var(acc(0))
    for coefficient in (x1, a0):
        eta = TwoForm.from_dict({(coord(0), vel(0)): coefficient})
        with pytest.raises(ValueError):
            homotopy_two_form(eta, 1)
    # the differential of a form of two coordinates, contracted on one
    eta = d1(VerticalOneForm((x1, ZERO), (ZERO, ZERO)))
    with pytest.raises(ValueError, match="index >= n"):
        homotopy_two_form(eta, 1)
    assert homotopy_two_form(eta, 3).n == 3
    # a two-form carries its blocks alone, and every result is checked,
    # a differential's too
    assert [f.name for f in dataclasses.fields(TwoForm)] == ["coeffs"]
    checked = []
    real = VerticalOneForm.__post_init__
    monkeypatch.setattr(
        VerticalOneForm, "__post_init__", lambda form: checked.append(form) or real(form)
    )
    phi = VerticalOneForm._valid((x1, ZERO), (ZERO, ZERO))
    assert homotopy_two_form(eta, 2) == homotopy_of_d1(phi)
    assert len(checked) == 1


def test_reconstruction_residual_matches_reference():
    # two thirds of the splits rebuild phi exactly, the canonical one among
    # them when phi has no sinusoid; the others miss it by a random form
    exact = 0
    for case, rng, n in cases(8):
        sinusoids = rng.random() < 0.5
        phi = draw_form(rng, n, sinusoids)
        pick = rng.randrange(3)
        if pick == 0 and not sinusoids:
            dec = decompose(phi)
        else:
            lagrangian = draw_expr(rng, n, sinusoids=True)
            anti = draw_form(rng, n, sinusoids=True)
            if pick < 2:
                anti = phi + -reference_d0(lagrangian, n)
            dec = Decomposition(lagrangian, anti, mode="user-declared")
        got = reconstruction_residual(dec, phi)
        assert_same_form(got, reference_reconstruction_residual(dec, phi))
        assert_same_form(phi - dec.anti_exact, phi + -dec.anti_exact)
        exact += got.is_zero
    assert CASES // 2 < exact < CASES * 3 // 4


def _raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_reconstruction_residual_keeps_the_errors_of_d0():
    x0, x1, a0 = (Expr.var(s) for s in (coord(0), coord(1), acc(0)))
    phi = VerticalOneForm((x0,), (ZERO,))
    splits = [
        Decomposition(x0 * a0, phi, "user-declared"),
        Decomposition(x0 * x1, phi, "user-declared"),
        Decomposition(x0, VerticalOneForm.zero(2), "user-declared"),
    ]
    messages = [_raised(reconstruction_residual, dec, phi) for dec in splits]
    assert messages == [_raised(reference_reconstruction_residual, dec, phi) for dec in splits]
    assert all(messages)
    # an index >= n whose partial is no component of d(L) is no error
    dec = Decomposition(x1, phi, "user-declared")
    want = reference_reconstruction_residual(dec, phi)
    assert_same_form(reconstruction_residual(dec, phi), want)


def test_jet_partials_are_the_partials():
    for case, rng, n in cases(7):
        e = draw_expr(rng, n, sinusoids=True)
        basis = [TAU, *(coord(i) for i in range(n)), *(vel(i) for i in range(n))]
        every = jet_partials(e)
        vertical = jet_partials(e, with_time=False)
        assert set(every) <= set(basis) and TAU not in vertical
        for s in basis:
            want = partial(e, s)
            assert same(every.get(s, ZERO), want), case
            if s != TAU:
                assert same(vertical.get(s, ZERO), want), case


def test_times_symbol_and_next_order():
    x, v = coord(0), vel(0)
    assert times_symbol((), x) == ((x, 1),)
    assert times_symbol(((TAU, 2), (x, 1)), x) == ((TAU, 2), (x, 2))
    assert times_symbol(((TAU, 2), (v, 3)), x) == ((TAU, 2), (x, 1), (v, 3))
    assert times_symbol(((x, 1),), v) == ((x, 1), (v, 1))
    sig = signal_symbol(_SINE, 1)
    assert next_order(sig) == signal_symbol(_SINE, 2)


@pytest.mark.parametrize("op", [total_time_derivative, variational_derivative, d0])
def test_acceleration_input_is_refused(op):
    with pytest.raises(ValueError):
        op(Expr.var(acc(0)) * Expr.var(coord(0)))
