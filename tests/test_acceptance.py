"""Acceptance gate: one test per exit criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from jetmech.cli import main as cli_main
from jetmech.dsl import ExprContext, PRESETS, parse_system, preset, text_to_expr
from jetmech.dynamics import (
    Trajectory,
    VariationField,
    assemble_explicit,
    energy_audit,
    first_variation,
    integrate,
    oracle_compare,
)
from jetmech.formcalc import TwoForm, VerticalOneForm, d1
from jetmech.spencer import dual_spencer, spencer_residual
from jetmech.symexpr import (
    TAU,
    Expr,
    PolynomialSignal,
    ZERO,
    acc,
    coord,
    format_expr,
    param,
    signal_symbol,
    sinusoid_signal,
    vel,
)
from jetmech.verify import (
    check_cochain_contraction,
    check_el_equivalence,
    check_split_invariance,
    random_expr,
)

SEED = 20260810

X, V, A = Expr.var(coord(0)), Expr.var(vel(0)), Expr.var(acc(0))
K, M, B = Expr.var(param("k")), Expr.var(param("m")), Expr.var(param("b"))
half = Fraction(1, 2)


def report(number: int, message: str):
    print(f"[PASS] criterion {number}: {message}")


def test_criterion_1_damped_driven_derivation(capsys):
    f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
    fe = Expr.var(signal_symbol(f))
    phi = VerticalOneForm((-K * X - B * V + fe,), (M * V,))
    start = time.perf_counter()
    eom = dual_spencer(phi)
    elapsed = time.perf_counter() - start
    expected = M * A + K * X + B * V - fe
    assert eom.normalized() == (expected,)
    assert elapsed < 1.0
    # the emitted equation re-parses to the same canonical polynomial
    assert cli_main(["derive", "damped_ho"]) == 0
    out = capsys.readouterr().out
    equation = next(line for line in out.splitlines() if line.endswith("= 0"))
    ctx = ExprContext(
        coords=("x",), params=frozenset({"k", "m", "b"}), signals={"f": f}
    )
    assert text_to_expr(equation[: -len(" = 0")], ctx) == expected
    report(1, f"derive emits m*x'' + k*x + b*x' - f = 0 exactly ({elapsed:.3f} s)")


def test_criterion_2_remainder_not_closed(capsys):
    f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
    phi_o = VerticalOneForm((-B * V + Expr.var(signal_symbol(f)),), (ZERO,))
    eta = d1(phi_o)
    expected = TwoForm.from_dict(
        {
            (TAU, coord(0)): Expr.var(signal_symbol(f, 1)),
            (coord(0), vel(0)): B,
        }
    )
    assert eta == expected
    assert not eta.is_zero
    assert cli_main(["decompose", "damped_ho", "--mode", "declared"]) == 0
    out = capsys.readouterr().out
    assert "phi_a not closed" in out
    report(2, "d(phi_a) = b dx^dx' + f' dt^dx exactly; reported not closed")


def test_criterion_3_duffing_and_van_der_pol(capsys):
    duffing = preset("duffing")
    a_p = Expr.var(param("a"))
    assert dual_spencer(duffing.phi).normalized() == (M * A + a_p * X**3 + B * V,)
    vdp = preset("vanderpol")
    b0 = Expr.var(param("b0"))
    assert dual_spencer(vdp.phi).normalized() == (M * A + K * X + b0 * (X**2 - 1) * V,)
    assert cli_main(["derive", "duffing"]) == 0
    assert "m*x'' = -a*x^3 - b*x'" in capsys.readouterr().out
    assert cli_main(["derive", "vanderpol"]) == 0
    assert "m*x'' = -k*x - b0*x^2*x' + b0*x'" in capsys.readouterr().out
    report(3, "duffing and van der pol presets derive their force laws exactly")


def test_criterion_4_cochain_contraction_bulk():
    start = time.perf_counter()
    result = check_cochain_contraction(SEED)
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < 10.0
    report(4, f"{result.detail} in {elapsed:.2f} s")


def test_criterion_5_el_equivalence_and_split_invariance():
    r1 = check_el_equivalence(SEED)
    assert r1.passed, r1.detail
    r2 = check_split_invariance(SEED)
    assert r2.passed, r2.detail
    report(5, f"{r1.detail}; {r2.detail}")


def test_criterion_6_closed_form_numerics():
    params = {"k": 1.0, "m": 1.0, "b": 0.1}
    phi = VerticalOneForm((-K * X - B * V,), (M * V,))
    ode = assemble_explicit(dual_spencer(phi), params)
    traj = integrate(ode, [1.0], [0.0], (0.0, 10.0), 1e-3)
    wd = math.sqrt(1.0 - 1.0 / 400.0)
    analytic = np.exp(-traj.taus / 20.0) * (
        np.cos(wd * traj.taus) + (1.0 / (20.0 * wd)) * np.sin(wd * traj.taus)
    )
    max_err = float(np.abs(traj.xs[:, 0] - analytic).max())
    assert max_err <= 1e-6

    cons_phi = VerticalOneForm((-K * X,), (M * V,))
    cons_ode = assemble_explicit(dual_spencer(cons_phi), {"k": 1.0, "m": 1.0})
    cons = integrate(cons_ode, [1.0], [0.0], (0.0, 100.0), 1e-3)
    assert len(cons.taus) == 100_001
    energy = 0.5 * cons.vs[:, 0] ** 2 + 0.5 * cons.xs[:, 0] ** 2
    drift = float(np.abs(energy - energy[0]).max() / abs(energy[0]))
    assert drift <= 1e-9
    report(
        6,
        f"underdamped max error {max_err:.2e} <= 1e-6; "
        f"energy drift {drift:.2e} <= 1e-9 over 1e5 steps",
    )


def test_criterion_7_oracle_equivalence():
    divergences = {}
    for name in ("damped_ho", "duffing", "vanderpol"):
        rep = oracle_compare(preset(name))
        divergences[name] = rep.max_divergence
        assert rep.max_divergence <= 1e-10, name
    corrupted = parse_system(
        PRESETS["damped_ho"].replace("force x: -k*x", "force x: -(k + 1)*x")
    )
    rep = oracle_compare(corrupted)
    assert rep.max_divergence > 1e-3
    rendered = ", ".join(f"{k}={v:.2e}" for k, v in divergences.items())
    report(7, f"max divergence {rendered}; corrupted phi diverges {rep.max_divergence:.2e}")


def test_criterion_8_first_variation_extremality():
    system = preset("damped_ho")
    params = system.param_values()
    a, b = 0.0, 10.0
    ode = assemble_explicit(dual_spencer(system.phi), params)
    solution = integrate(ode, system.init[0], system.init[1], (a, b), 1e-3)
    perturbed_ode = assemble_explicit(
        dual_spencer(system.phi), dict(params, k=params["k"] * 1.1)
    )
    perturbed = integrate(perturbed_ode, system.init[0], system.init[1], (a, b), 1e-3)

    from jetmech.symexpr import TAU

    t = Expr.var(TAU)
    rng = random.Random(SEED)
    worst_sol, worst_ibp, worst_ratio = 0.0, 0.0, math.inf
    for _ in range(20):
        poly = ZERO
        for k in range(3):
            poly = poly + Expr.const(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4))) * t**k
        variation = VariationField(
            exprs=(t * (Expr.const(10) - t) * poly,), vanishes_at_a=True, vanishes_at_b=True
        )
        delta, _ = variation.sample_on(solution.taus, solution.h)
        norm = float(np.abs(delta).max())
        (sigma_sol,) = first_variation(solution, system.phi, [variation], params, "pre")
        assert abs(sigma_sol) <= 1e-5 * norm
        (sigma_pert,) = first_variation(perturbed, system.phi, [variation], params, "pre")
        assert abs(sigma_pert) >= 100.0 * abs(sigma_sol)
        (sigma_post,) = first_variation(solution, system.phi, [variation], params, "post")
        scale = 1.0 + abs(sigma_sol) + abs(sigma_post) + norm
        assert abs(sigma_sol - sigma_post) <= 1e-8 * scale
        worst_sol = max(worst_sol, abs(sigma_sol) / norm)
        worst_ibp = max(worst_ibp, abs(sigma_sol - sigma_post) / scale)
        worst_ratio = min(
            worst_ratio, abs(sigma_pert) / max(abs(sigma_sol), 1e-300)
        )
    report(
        8,
        f"20 variations: |Sigma|/norm <= {worst_sol:.2e}, perturbed/solution >= "
        f"{worst_ratio:.1e}, IBP residual <= {worst_ibp:.2e}",
    )


def test_criterion_9_spencer_integrability():
    system = preset("harmonic")
    ode = assemble_explicit(dual_spencer(system.phi), system.param_values())
    maxima = []
    for h in (2e-3, 1e-3):
        traj = integrate(ode, system.init[0], system.init[1], (0.0, 10.0), h)
        maxima.append(float(np.abs(spencer_residual(traj)).max()))
    ratio = maxima[0] / maxima[1]
    assert ratio >= 3.5
    taus = np.linspace(0.0, 1.0, 101)
    broken = Trajectory(taus, taus.reshape(-1, 1), np.zeros((101, 1)), taus[1] - taus[0])
    r = spencer_residual(broken)
    assert np.abs(r - 1.0).max() <= 1e-12
    report(9, f"halving ratio {ratio:.2f} >= 3.5; broken section residual = 1")


def test_criterion_10_energy_balance_pointwise():
    system = preset("damped_ho")
    params = system.param_values()
    a, b, h = system.time
    ode = assemble_explicit(dual_spencer(system.phi), params)
    traj = integrate(ode, system.init[0], system.init[1], (a, b), h)
    dec = system.declared_decomposition()
    audit = energy_audit(traj, dec, params)
    # rho is exactly dE/dt - (-b x' + f) x' on the audit grid
    assert audit.max_residual <= 1e-6
    expected_P = (-0.1 * traj.vs[:, 0] + 0.3 * np.sin(1.2 * traj.taus)) * traj.vs[:, 0]
    assert np.abs(audit.P - expected_P).max() <= 1e-12
    report(10, f"max |dE/dt - (-b*x' + f)*x'| = {audit.max_residual:.2e} <= 1e-6")


def test_criterion_11_dsl_round_trip_and_positions():
    rng = random.Random(SEED)
    ctx = ExprContext(
        coords=("x", "y", "z"),
        params=frozenset({"p", "q"}),
        signals={"w": PolynomialSignal("w", (Fraction(1), Fraction(-1, 2), Fraction(1, 3)))},
    )
    for _ in range(100):
        n = rng.randint(1, 3)
        e = random_expr(rng, n, with_signal=rng.random() < 0.4)
        sub_ctx = ExprContext(
            coords=ctx.coords[:n], params=ctx.params, signals=ctx.signals
        )
        assert text_to_expr(format_expr(e, sub_ctx.coords), sub_ctx) == e
    from jetmech.dsl import ParseError, parse_expr

    cases = [("x +", 1, 4), ("(x", 1, 3), ("* x", 1, 1), ("x @ 2", 1, 3), ("x +\n y *", 2, 5)]
    for text, line, col in cases:
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert (err.value.line, err.value.col) == (line, col)
    report(11, "100 round-trips unchanged; parse errors carry exact line/col")
