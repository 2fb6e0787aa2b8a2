import dataclasses
import hashlib
import math
import os
import random
import signal
from fractions import Fraction

import numpy as np
import pytest

from jetmech import dynamics, forking
from jetmech.cli import main
from jetmech.dynamics import (
    CSV_FORK_VALUES,
    ExplicitODE,
    OracleReport,
    Trajectory,
    VariationField,
    _eval_on_trajectory,
    accelerations_on,
    assemble_explicit,
    energy_audit,
    first_variation,
    integrate,
    invert_mass,
    mass_and_force,
    newton_oracle_eom,
    oracle_compare,
    sample_fields,
    simpson_uniform,
    transversality_term,
    write_trajectory_csv,
)
from jetmech.dsl import PRESETS, parse_system, preset
from jetmech.errors import AuditUnsupportedError, MechError, SingularMassError
from jetmech.formcalc import Decomposition, VerticalOneForm, decompose
from jetmech.spencer import EquationsOfMotion, dual_spencer, spencer_residual
from jetmech.symexpr import (
    TAU,
    Expr,
    ZERO,
    acc,
    compile_expr,
    coord,
    param,
    partial,
    signal_symbol,
    sinusoid_signal,
    vel,
)
from jetmech.verify import (
    VARIATION_CASES,
    _envelope,
    _fixed_boundary_variation,
    check_first_variation,
)

X, V = Expr.var(coord(0)), Expr.var(vel(0))
K, M, B = Expr.var(param("k")), Expr.var(param("m")), Expr.var(param("b"))
half = Fraction(1, 2)

HO_PARAMS = {"k": 1.0, "m": 1.0}


def ho_phi(forcing=None, damping=False):
    F = -K * X
    if damping:
        F = F - B * V
    if forcing is not None:
        F = F + forcing
    return VerticalOneForm((F,), (M * V,))


def ho_ode(params=HO_PARAMS, **kw):
    return assemble_explicit(dual_spencer(ho_phi(**kw)), params)


class TestAssembleExplicit:
    def test_damped_driven_rhs(self):
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        phi = ho_phi(forcing=Expr.var(signal_symbol(f)), damping=True)
        params = {"k": 1.0, "m": 2.0, "b": 0.1}
        ode = assemble_explicit(dual_spencer(phi), params)
        assert mass_and_force(dual_spencer(phi))[2]
        t, x, v = 0.7, 0.3, -0.2
        expected = (-1.0 * x - 0.1 * v + 0.3 * math.sin(1.2 * t)) / 2.0
        assert abs(ode.rhs(t, [x], [v])[0] - expected) < 1e-15

    def test_massless_is_singular(self):
        phi = VerticalOneForm((-K * X,), (ZERO,))
        with pytest.raises(SingularMassError):
            assemble_explicit(dual_spencer(phi), {"k": 1.0})

    def test_two_coordinate_constant_mass(self):
        x0, x1 = Expr.var(coord(0)), Expr.var(coord(1))
        v0, v1 = Expr.var(vel(0)), Expr.var(vel(1))
        phi = VerticalOneForm((-x0, -x0 - v1), (M * v0, M * v1))
        ode = assemble_explicit(dual_spencer(phi), {"m": 2.0})
        a = ode.rhs(0.0, [1.0, 0.5], [0.2, -0.3])
        assert abs(a[0] - 0.5 * (-1.0)) < 1e-15
        assert abs(a[1] - 0.5 * (-1.0 + 0.3)) < 1e-15

    def test_constant_masses_of_one_size_share_a_solver(self):
        x0, x1 = Expr.var(coord(0)), Expr.var(coord(1))
        v0, v1 = Expr.var(vel(0)), Expr.var(vel(1))
        eom = dual_spencer(VerticalOneForm((-x0, -x0 - v1), (M * v0, M * v0 + M * v1)))
        dynamics._solver.cache_clear()
        first = assemble_explicit(eom, {"m": 2.0})
        second = assemble_explicit(eom, {"m": 3.0})
        info = dynamics._solver.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert dynamics._solver(2) is dynamics._solver(2)
        # the shared solver inverted each matrix on its own
        a = [ode.rhs(0.0, [1.0, 0.5], [0.2, -0.3]) for ode in (first, second)]
        assert a[0] == pytest.approx([-1.0 / 2.0, (-1.0 + 0.3) / 2.0 + 1.0 / 2.0], abs=1e-15)
        assert a[1] == pytest.approx([-1.0 / 3.0, (-1.0 + 0.3) / 3.0 + 1.0 / 3.0], abs=1e-15)

    def test_state_dependent_mass(self):
        # momentum m v (1 + x^2): M = m (1 + x^2), c = F - 2 m x v^2
        pi = M * V * (1 + X**2)
        phi = VerticalOneForm((-K * X,), (pi,))
        ode = assemble_explicit(dual_spencer(phi), {"k": 1.0, "m": 2.0})
        assert not mass_and_force(dual_spencer(phi))[2]
        t, x, v = 0.0, 0.5, 0.4
        expected = (-x - 2 * 2.0 * x * v * v) / (2.0 * (1 + x * x))
        assert abs(ode.rhs(t, [x], [v])[0] - expected) < 1e-14

    def test_pivot_threshold_reports_state(self):
        # mass vanishes where x = 0
        pi = M * V * X
        phi = VerticalOneForm((-K * X,), (pi,))
        ode = assemble_explicit(dual_spencer(phi), {"k": 1.0, "m": 1.0})
        with pytest.raises(SingularMassError) as err:
            ode.rhs(0.0, [0.0], [1.0])
        assert "x=" in str(err.value)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_singular_state_message_uses_plain_floats(self, method):
        phi = VerticalOneForm((-K * X,), (M * V * X,))
        ode = assemble_explicit(dual_spencer(phi), {"k": 1.0, "m": 1.0})
        with pytest.raises(SingularMassError) as err:
            integrate(ode, [0.0], [1.0], (0.0, 1.0), 1e-2, method)
        assert str(err.value) == (
            "mass matrix singular (pivot 0.000e+00 below threshold) "
            "at t=0.0, x=[0.0], v=[1.0]"
        )

    def test_singular_state_message_on_array_rows(self):
        phi = VerticalOneForm((-K * X,), (M * V * X,))
        ode = assemble_explicit(dual_spencer(phi), {"k": 1.0, "m": 1.0})
        traj = integrate(ho_ode(), [0.0], [1.0], (0.0, 1.0), 1e-2)
        with pytest.raises(SingularMassError) as err:
            accelerations_on(traj, ode)
        assert str(err.value).endswith("at t=0.0, x=[0.0], v=[1.0]")
        with pytest.raises(SingularMassError) as err:
            ode.rhs(np.float64(0.0), np.zeros(1), np.ones(1))
        assert str(err.value).endswith("at t=0.0, x=[0.0], v=[1.0]")


class TestIntegrate:
    def test_harmonic_closed_form(self):
        traj = integrate(ho_ode(), [1.0], [0.0], (0.0, math.pi), 1e-3)
        assert abs(traj.xs[-1, 0] - (-1.0)) <= 1e-8

    def test_zero_force_fixed_point(self):
        phi = VerticalOneForm((ZERO,), (M * V,))
        ode = assemble_explicit(dual_spencer(phi), {"m": 1.0})
        traj = integrate(ode, [0.7], [0.0], (0.0, 1.0), 1e-2)
        assert np.all(traj.xs == 0.7)
        assert np.all(traj.vs == 0.0)

    def test_underdamped_closed_form(self):
        params = {"k": 1.0, "m": 1.0, "b": 0.1}
        ode = assemble_explicit(dual_spencer(ho_phi(damping=True)), params)
        traj = integrate(ode, [1.0], [0.0], (0.0, 10.0), 1e-3)
        wd = math.sqrt(1.0 - 1.0 / 400.0)
        ref = np.exp(-traj.taus / 20.0) * (
            np.cos(wd * traj.taus) + (1.0 / (20.0 * wd)) * np.sin(wd * traj.taus)
        )
        assert np.abs(traj.xs[:, 0] - ref).max() <= 1e-6

    def test_rk4_global_order(self):
        errs = []
        for h in (0.01, 0.005):
            traj = integrate(ho_ode(), [1.0], [0.0], (0.0, 10.0), h)
            errs.append(np.abs(traj.xs[:, 0] - np.cos(traj.taus)).max())
        assert errs[0] / errs[1] >= 14.0

    def test_rkf45_accuracy_and_grid(self):
        traj = integrate(ho_ode(), [1.0], [0.0], (0.0, 10.0), 1e-2, method="rkf45")
        assert len(traj.taus) == 1001
        assert np.abs(np.diff(traj.taus) - traj.h).max() < 1e-12
        assert np.abs(traj.xs[:, 0] - np.cos(traj.taus)).max() <= 1e-6

    def test_blow_up_truncates_with_flag(self):
        # v' = v^2 with v(0) = 1 blows up at t = 1
        phi = VerticalOneForm((V**2,), (M * V,))
        ode = assemble_explicit(dual_spencer(phi), {"m": 1.0})
        traj = integrate(ode, [0.0], [1.0], (0.0, 2.0), 1e-3)
        assert traj.truncated
        assert len(traj.taus) < 2001
        assert np.isfinite(traj.xs).all() and np.isfinite(traj.vs).all()

    @pytest.mark.parametrize("method, samples", [("rk4", 1857), ("rkf45", 1855)])
    def test_cubic_blow_up_truncation_point(self, method, samples):
        # x'' = x^3 from x = 1 at rest escapes to infinity near t = 1.85
        phi = VerticalOneForm((X**3,), (M * V,))
        ode = assemble_explicit(dual_spencer(phi), {"m": 1.0})
        traj = integrate(ode, [1.0], [0.0], (0.0, 4.0), 1e-3, method)
        assert traj.truncated
        assert len(traj.taus) == samples
        assert np.isfinite(traj.xs).all() and np.isfinite(traj.vs).all()

    def test_rkf45_attempt_cap_truncates(self, monkeypatch):
        # 2,000 time units need far more than 1,000 attempts at
        # RKF45_MAX_STEP = 0.02; the cap only cuts the run short
        runs = []
        for cap in (1000, 2000):
            monkeypatch.setattr(dynamics, "RKF45_MAX_ATTEMPTS", cap)
            runs.append(integrate(ho_ode(), [1.0], [0.0], (0.0, 2000.0), 1.0, "rkf45"))
        short, longer = runs
        assert short.truncated and longer.truncated
        assert 1 < len(short.taus) < len(longer.taus) < 2001
        m = len(short.taus)
        assert np.array_equal(short.xs, longer.xs[:m]) and np.array_equal(short.vs, longer.vs[:m])

    def test_rkf45_run_ending_on_its_last_attempt_is_whole(self, monkeypatch):
        def run(cap):
            monkeypatch.setattr(dynamics, "RKF45_MAX_ATTEMPTS", cap)
            return integrate(ho_ode(), [1.0], [0.0], (0.0, 1.0), 1e-2, "rkf45")

        whole = run(dynamics.RKF45_MAX_ATTEMPTS)
        low, high = 1, 10_000  # the fewest attempts that finish lie in (low, high]
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if not run(mid).truncated else (mid, high)
        cut = run(low)
        assert cut.truncated and len(cut.taus) < 101
        exact = run(high)
        assert not exact.truncated and len(exact.taus) == 101
        assert np.array_equal(exact.xs, whole.xs) and np.array_equal(exact.vs, whole.vs)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_overflow_in_law_truncates(self, method):
        # x^400 leaves the float range as a raised OverflowError, not inf
        phi = VerticalOneForm((X**400,), (M * V,))
        ode = assemble_explicit(dual_spencer(phi), {"m": 1.0})
        with pytest.raises(OverflowError):
            ode.rhs(0.0, [6.0], [0.0])
        traj = integrate(ode, [6.0], [0.0], (0.0, 1.0), 1e-3, method)
        assert traj.truncated
        assert len(traj.taus) == 1
        traj = integrate(ode, [1.0], [6.0], (0.0, 1.0), 1e-3, method)
        assert traj.truncated
        assert 1 <= len(traj.taus) < 1001

    def test_grid_far_from_zero_passes_the_uniform_grid_check(self):
        # linspace steps near t = 1e6 differ by one ulp of 1e6 (1.2e-7 of h)
        traj = integrate(ho_ode(), [1.0], [0.0], (1e6, 1e6 + 1), 1e-3)
        assert len(traj.taus) == 1001

    def test_step_must_be_the_grid_step(self):
        taus = np.linspace(0.0, 1.0, 101)
        xs = vs = np.zeros((101, 1))
        assert Trajectory(taus, xs, vs, 0.01).h == 0.01
        with pytest.raises(ValueError, match="disagrees with the grid step"):
            Trajectory(taus, xs, vs, 0.5)

    def test_integrated_sections_are_integrable(self):
        maxima = []
        for h in (2e-3, 1e-3):
            traj = integrate(ho_ode(), [1.0], [0.0], (0.0, 10.0), h)
            maxima.append(np.abs(spencer_residual(traj)).max())
        assert maxima[0] / maxima[1] >= 3.5


class TestSimpson:
    def test_exact_for_cubics(self):
        taus = np.linspace(0.0, 2.0, 201)
        vals = taus**3 - 2 * taus
        exact = 2.0**4 / 4 - 2.0**2
        assert abs(simpson_uniform(vals, taus[1] - taus[0]) - exact) < 1e-12

    def test_odd_interval_count(self):
        taus = np.linspace(0.0, 1.0, 100)  # 99 intervals
        vals = taus**2
        got = simpson_uniform(vals, taus[1] - taus[0])
        assert abs(got - 1.0 / 3.0) < 1e-10


class TestEnergyAudit:
    def conservative_dec(self):
        L = Expr.const(half) * M * V**2 - Expr.const(half) * K * X**2
        return Decomposition(L, VerticalOneForm.zero(1), "user-declared")

    def test_conservative_ledger(self):
        traj = integrate(ho_ode(), [1.0], [0.0], (0.0, 100.0), 1e-3)
        report = energy_audit(traj, self.conservative_dec(), HO_PARAMS)
        assert report.relative_drift <= 1e-9
        assert report.max_residual <= 1e-6

    def test_damped_dissipation_identity(self):
        params = {"k": 1.0, "m": 1.0, "b": 0.1}
        phi = ho_phi(damping=True)
        dec = Decomposition(
            Expr.const(half) * M * V**2 - Expr.const(half) * K * X**2,
            VerticalOneForm((-B * V,), (ZERO,)),
            "user-declared",
        )
        ode = assemble_explicit(dual_spencer(phi), params)
        traj = integrate(ode, [1.0], [0.0], (0.0, 20.0), 1e-3)
        report = energy_audit(traj, dec, params)
        assert report.max_residual <= 1e-6
        # P = -b v^2 along the trajectory
        assert np.abs(report.P + 0.1 * traj.vs[:, 0] ** 2).max() < 1e-12
        # dissipative: energy never increases
        assert np.all(np.diff(report.E) <= 1e-12)

    def test_driven_power_identity(self):
        params = {"k": 1.0, "m": 1.0, "b": 0.1}
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        fe = Expr.var(signal_symbol(f))
        phi = ho_phi(forcing=fe, damping=True)
        dec = Decomposition(
            Expr.const(half) * M * V**2 - Expr.const(half) * K * X**2,
            VerticalOneForm((-B * V + fe,), (ZERO,)),
            "user-declared",
        )
        ode = assemble_explicit(dual_spencer(phi), params)
        traj = integrate(ode, [1.0], [0.0], (0.0, 20.0), 1e-3)
        report = energy_audit(traj, dec, params)
        assert report.max_residual <= 1e-6
        expected_P = (-0.1 * traj.vs[:, 0] + 0.3 * np.sin(1.2 * traj.taus)) * traj.vs[:, 0]
        assert np.abs(report.P - expected_P).max() < 1e-12

    def test_dv_components_refused(self):
        phi = VerticalOneForm((-K * X - B * V,), (M * V,))
        dec = decompose(
            VerticalOneForm((-K * X - B * V + Expr.var(param("f0")),), (M * V,))
        )
        traj = integrate(ho_ode(), [1.0], [0.0], (0.0, 1.0), 1e-2)
        with pytest.raises(AuditUnsupportedError):
            energy_audit(traj, dec, {"k": 1.0, "m": 1.0, "b": 0.1, "f0": 0.2})

    def test_explicit_time_dependence_folded_into_power(self):
        # canonical split of a polynomially-forced oscillator keeps g(t) x
        # inside L; the explicit dL/dt lands in P and the ledger balances
        from jetmech.symexpr import polynomial_signal

        g = Expr.var(signal_symbol(polynomial_signal("g", Fraction(1, 5), Fraction(1, 10))))
        phi = VerticalOneForm((-K * X + g,), (M * V,))
        dec = decompose(phi)
        assert dec.anti_exact.is_zero  # the forced form is fiber-exact
        params = {"k": 1.0, "m": 1.0}
        ode = assemble_explicit(dual_spencer(phi), params)
        traj = integrate(ode, [1.0], [0.0], (0.0, 10.0), 1e-3)
        report = energy_audit(traj, dec, params)
        assert report.max_residual <= 1e-6
        # P = -dL/dt = -g'(t) x with g' = 1/10
        assert np.abs(report.P + 0.1 * traj.xs[:, 0]).max() < 1e-12


class TestVariation:
    def setup_method(self):
        self.params = {"k": 1.0, "m": 1.0, "b": 0.1}
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        self.phi = ho_phi(forcing=Expr.var(signal_symbol(f)), damping=True)
        self.ode = assemble_explicit(dual_spencer(self.phi), self.params)
        self.traj = integrate(self.ode, [1.0], [0.0], (0.0, 10.0), 1e-3)

    def sine_variation(self):
        a, b = 0.0, 10.0
        w = math.pi / (b - a)
        delta = np.sin(w * (self.traj.taus - a))
        ddot = w * np.cos(w * (self.traj.taus - a))
        return VariationField(samples=delta, dot_samples=ddot, vanishes_at_a=True)

    def test_vanishes_on_solutions(self):
        variation = self.sine_variation()
        norm = 1.0
        value = first_variation(self.traj, self.phi, variation, self.params, "pre")
        assert abs(value) <= 1e-5 * norm

    def test_zero_variation_gives_zero(self):
        variation = VariationField(
            samples=np.zeros_like(self.traj.taus), dot_samples=np.zeros_like(self.traj.taus)
        )
        assert first_variation(self.traj, self.phi, variation, self.params, "pre") == 0.0

    def test_detects_perturbed_dynamics(self):
        # negative control: harmonic oscillator trajectory generated with k
        # perturbed by 10%, measured against the unperturbed form
        phi = ho_phi()
        perturbed_ode = assemble_explicit(dual_spencer(phi), {"k": 1.1, "m": 1.0})
        perturbed = integrate(perturbed_ode, [1.0], [0.0], (0.0, 10.0), 1e-3)
        variation = self.sine_variation()
        solution = integrate(ho_ode(), [1.0], [0.0], (0.0, 10.0), 1e-3)
        on_solution = first_variation(solution, phi, variation, HO_PARAMS, "pre")
        on_perturbed = first_variation(perturbed, phi, variation, HO_PARAMS, "pre")
        assert abs(on_perturbed) >= 1e-2  # norm of the sine variation is 1
        assert abs(on_perturbed) >= 100.0 * abs(on_solution)

    def test_integration_by_parts_identity(self):
        # on the solution and on a trajectory of another law (k = 1.1), where
        # the pre form is far from zero: post uses each trajectory's own law
        perturbed_ode = assemble_explicit(dual_spencer(self.phi), dict(self.params, k=1.1))
        perturbed = integrate(perturbed_ode, [1.0], [0.0], (0.0, 10.0), 1e-3)
        rng = random.Random(41)
        t = Expr.var(TAU)
        for _ in range(5):
            poly = ZERO
            for k in range(3):
                poly = poly + Expr.const(Fraction(rng.randint(-3, 3) or 1, 2)) * t**k
            variation = VariationField(exprs=(t * (Expr.const(10) - t) * poly / 25,))
            for traj in (self.traj, perturbed):
                pre = first_variation(traj, self.phi, variation, self.params, "pre")
                post = first_variation(traj, self.phi, variation, self.params, "post")
                scale = 1.0 + abs(pre) + abs(post)
                assert abs(pre - post) <= 1e-8 * scale

    def test_post_on_a_solution_is_the_rederived_law_bitwise(self):
        # post once re-derived phi's law for every call; on a solution of phi
        # that law is the trajectory's own, so the value is unchanged
        ode = assemble_explicit(dual_spencer(self.phi), self.params)
        accels = accelerations_on(self.traj, ode)
        assert np.array_equal(self.traj.accels, accels)
        variation = VariationField(exprs=(Expr.var(TAU) / 10,))
        delta, _ = variation.sample_on(self.traj.taus, self.traj.h)
        integrand = np.zeros_like(self.traj.taus)
        for i, r in enumerate(dual_spencer(self.phi).residuals):
            fn = compile_expr(r, self.params)
            integrand += fn(self.traj.taus, self.traj.xs.T, self.traj.vs.T, accels.T) * delta[:, i]
        post = first_variation(self.traj, self.phi, variation, self.params, "post")
        ta, tb = transversality_term(self.traj, self.phi, variation, self.params)
        assert post == simpson_uniform(integrand, self.traj.h) + (tb - ta)

    def test_hand_built_trajectory_has_no_accelerations(self):
        taus = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(taus, np.zeros((11, 1)), np.ones((11, 1)), 0.1)
        variation = VariationField(exprs=(Expr.var(TAU),))
        # the pre form never needs them
        assert abs(first_variation(traj, ho_phi(), variation, HO_PARAMS, "pre") - 1.0) < 1e-12
        with pytest.raises(MechError, match="without a law"):
            first_variation(traj, ho_phi(), variation, HO_PARAMS, "post")

    def test_post_without_boundary_plus_theta(self):
        t = Expr.var(TAU)
        variation = VariationField(exprs=(t / 10,))
        pre = first_variation(self.traj, self.phi, variation, self.params, "pre")
        ta, tb = transversality_term(self.traj, self.phi, variation, self.params)
        post_nb = first_variation(self.traj, self.phi, variation, self.params, "post") - (tb - ta)
        assert tb != ta
        assert abs(pre - (post_nb + tb - ta)) <= 1e-8 * (1 + abs(pre))

    def test_transversality_fixed_boundary(self):
        variation = self.sine_variation()
        ta, tb = transversality_term(self.traj, self.phi, variation, self.params)
        assert abs(ta) <= 1e-12 and abs(tb) <= 1e-12

    def test_transversality_momentum_value(self):
        # artificial trajectory with v(b) = 0.5, m = 1, delta-x = 1
        taus = np.linspace(0.0, 1.0, 11)
        xs = np.zeros((11, 1))
        vs = np.full((11, 1), 0.5)
        traj = Trajectory(taus, xs, vs, 0.1)
        variation = VariationField(exprs=(Expr.const(1),))
        ta, tb = transversality_term(traj, ho_phi(), variation, HO_PARAMS)
        assert abs(tb - 0.5) < 1e-15

    def test_transversality_zero_at_a_for_ramp(self):
        taus = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(taus, np.zeros((11, 1)), np.ones((11, 1)), 0.1)
        variation = VariationField(exprs=(Expr.var(TAU),))
        ta, _ = transversality_term(traj, ho_phi(), variation, HO_PARAMS)
        assert ta == 0.0

    def test_a_symbolic_field_is_evaluated_on_each_call(self, monkeypatch):
        # the field keeps nothing: each call compiles and evaluates its
        # components afresh, each with its time derivative in one function
        compiled = []
        original = dynamics.compile_exprs

        def counting(exprs, *args, **kwargs):
            compiled.append(tuple(exprs))
            return original(exprs, *args, **kwargs)

        monkeypatch.setattr(dynamics, "compile_exprs", counting)
        t = Expr.var(TAU)
        variation = VariationField(exprs=(t * t / 10,))
        delta, ddot = variation.sample_on(self.traj.taus, self.traj.h)
        again = variation.sample_on(self.traj.taus, self.traj.h)
        assert compiled == [(t * t / 10, t / 5)] * 2
        assert again[0] is not delta and again[1] is not ddot
        assert again[0].tobytes() == delta.tobytes() and again[1].tobytes() == ddot.tobytes()
        assert vars(variation).keys() == {f.name for f in dataclasses.fields(VariationField)}
        assert np.allclose(ddot[:, 0], self.traj.taus / 5, rtol=1e-15, atol=0)

    def test_sampled_variation_is_rows_never_transposed(self):
        taus = self.traj.taus
        column = VariationField(samples=np.sin(taus))  # 1-D: one coordinate
        delta, ddot = column.sample_on(taus, self.traj.h)
        assert delta.shape == ddot.shape == (len(taus), 1)
        row = VariationField(samples=np.sin(taus).reshape(1, -1))
        with pytest.raises(ValueError):
            row.sample_on(taus, self.traj.h)

    def test_flagged_variation_validated(self):
        bad = VariationField(
            samples=np.ones_like(self.traj.taus), dot_samples=np.zeros_like(self.traj.taus),
            vanishes_at_a=True,
        )
        with pytest.raises(ValueError):
            bad.sample_on(self.traj.taus, self.traj.h)

    @pytest.mark.parametrize("end", ["a", "b"])
    def test_a_nan_end_does_not_pass_a_vanishing_flag(self, end):
        taus = np.linspace(0.0, 1.0, 11)
        samples = np.linspace(0.5, 0.0, 11) if end == "a" else np.linspace(0.0, 0.5, 11)
        samples[0 if end == "a" else -1] = np.nan
        field = VariationField(
            samples=samples, dot_samples=np.zeros(11), **{f"vanishes_at_{end}": True}
        )
        with pytest.raises(ValueError, match=f"vanishing at {end} does not"):
            field.sample_on(taus, taus[1])

    def test_a_flagged_field_that_does_not_vanish_raises_in_a_batch(self):
        t = Expr.var(TAU)
        good = VariationField(
            exprs=(t * (Expr.const(10) - t),), vanishes_at_a=True, vanishes_at_b=True
        )
        for bad in (
            VariationField(exprs=(t + 1,), vanishes_at_a=True),
            VariationField(exprs=(t,), vanishes_at_b=True),
        ):
            # each field is checked as it is reached, as a case would be
            sampled = sample_fields([good, bad], self.traj.taus, self.traj.h)
            assert next(sampled)[0][0, 0] == 0.0
            with pytest.raises(ValueError, match="does not"):
                next(sampled)
            with pytest.raises(ValueError, match="does not"):
                bad.sample_on(self.traj.taus, self.traj.h)

    def test_a_batch_of_mixed_fields_matches_each_field_alone(self):
        # symbolic fields of one and two components around a sampled one:
        # each field reads its own columns of the one compiled function
        t = Expr.var(TAU)
        f = Expr.var(signal_symbol(sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 1)))
        fields = [
            VariationField(exprs=(t**3 * f, t**2 / 7)),
            self.sine_variation(),
            VariationField(exprs=(t**3 - t**2 + f,)),
        ]
        batched = list(sample_fields(fields, self.traj.taus, self.traj.h))
        for field, sampled in zip(fields, batched, strict=True):
            alone = field.sample_on(self.traj.taus, self.traj.h)
            assert [a.tobytes() for a in sampled] == [a.tobytes() for a in alone]
        assert batched[0][0].shape == (len(self.traj.taus), 2)

    @pytest.mark.parametrize("seed", [7, 31])
    def test_the_suites_fields_at_once_match_each_field_alone(self, seed):
        # the 20 fields of check_first_variation on its grid, with the time
        # factors they share evaluated once, bit for bit as one at a time
        envelope = _envelope(0.0, 10.0)
        fields = [
            _fixed_boundary_variation(random.Random(seed + 30_000 + i), 0.0, 10.0, envelope)
            for i in range(VARIATION_CASES)
        ]
        batched = list(sample_fields(fields, self.traj.taus, self.traj.h))
        assert len(batched) == VARIATION_CASES == 20
        for field, (delta, ddot) in zip(fields, batched, strict=True):
            alone_delta, alone_ddot = field.sample_on(self.traj.taus, self.traj.h)
            assert delta.tobytes() == alone_delta.tobytes()
            assert ddot.tobytes() == alone_ddot.tobytes()
            # and as compile_expr gives each, with no factor bound to a name
            (e,) = field.exprs
            for got, want in ((delta, e), (ddot, partial(e, TAU))):
                reference = compile_expr(want, {})(self.traj.taus, (), ())
                assert got[:, 0].tobytes() == reference.tobytes()

    def test_the_suite_compiles_its_fields_in_one_function(self, monkeypatch):
        compiled = []
        original = dynamics.compile_exprs

        def counting(exprs, params):
            compiled.append(len(exprs))
            return original(exprs, params)

        monkeypatch.setattr(dynamics, "compile_exprs", counting)
        assert check_first_variation(7).passed
        assert compiled == [2 * VARIATION_CASES]


class TestKeptSamples:
    """Each expression is evaluated once per trajectory, and what is kept is
    handed out read-only; the trajectory is the one object that keeps
    samples."""

    def setup_method(self):
        self.params = {"k": 1.0, "m": 1.0, "b": 0.1}
        self.phi = ho_phi(damping=True)
        ode = assemble_explicit(dual_spencer(self.phi), self.params)
        self.traj = integrate(ode, [1.0], [0.0], (0.0, 1.0), 1e-2)

    def test_an_expression_is_evaluated_once_per_trajectory(self):
        residual = dual_spencer(self.phi).residuals[0]  # reads the accelerations
        kept = _eval_on_trajectory(residual, self.traj, self.params)
        fn = compile_expr(residual, self.params)
        fresh = fn(self.traj.taus, self.traj.xs.T, self.traj.vs.T, self.traj.accels.T)
        assert _eval_on_trajectory(residual, self.traj, self.params) is kept
        assert kept.dtype == fresh.dtype and kept.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            kept[0] = 1.0
        assert _eval_on_trajectory(residual, self.traj, self.params).tobytes() == fresh.tobytes()
        # other parameter literals are another compiled function
        other = _eval_on_trajectory(residual, self.traj, dict(self.params, k=2.0))
        assert other is not kept and not np.array_equal(other, kept)

    def test_a_kept_expression_is_not_compiled_again(self, monkeypatch):
        compiled = []
        original = dynamics.compile_expr

        def counting(e, params):
            compiled.append(e)
            return original(e, params)

        monkeypatch.setattr(dynamics, "compile_expr", counting)
        residual = dual_spencer(self.phi).residuals[0]
        kept = _eval_on_trajectory(residual, self.traj, self.params)
        equal = dual_spencer(self.phi).residuals[0]  # equal, not the same object
        assert equal is not residual
        assert _eval_on_trajectory(equal, self.traj, dict(self.params)) is kept
        assert compiled == [residual]

    def test_signed_zero_parameters_are_kept_apart(self):
        # 0.0 == -0.0, but k*x emits a different literal for each
        assert self.traj.xs[0, 0] == 1.0
        plus = _eval_on_trajectory(K * X, self.traj, {"k": 0.0})
        minus = _eval_on_trajectory(K * X, self.traj, {"k": -0.0})
        assert not np.signbit(plus[0]) and np.signbit(minus[0])

    def test_a_sampled_symbolic_field_gives_the_same_values(self):
        # sampling a symbolic field once and passing the samples, as verify
        # does, changes no bit of the functional or the boundary pairing
        symbolic = _fixed_boundary_variation(random.Random(30_007), 0.0, 1.0, _envelope(0.0, 1.0))
        delta, ddot = symbolic.sample_on(self.traj.taus, self.traj.h)
        sampled = VariationField(
            samples=delta, dot_samples=ddot, vanishes_at_a=True, vanishes_at_b=True
        )
        ode = assemble_explicit(dual_spencer(self.phi), dict(self.params, k=1.1))
        perturbed = integrate(ode, [1.0], [0.0], (0.0, 1.0), 1e-2)
        for traj in (self.traj, perturbed):
            for form in ("pre", "post"):
                want = first_variation(traj, self.phi, symbolic, self.params, form)
                got = first_variation(traj, self.phi, sampled, self.params, form)
                assert got.hex() == want.hex()
            want = transversality_term(traj, self.phi, symbolic, self.params)
            got = transversality_term(traj, self.phi, sampled, self.params)
            assert [v.hex() for v in got] == [v.hex() for v in want]
        for kept, cls in ((symbolic, VariationField), (self.phi, VerticalOneForm)):
            assert vars(kept).keys() == {f.name for f in dataclasses.fields(cls)}

    def test_first_variation_values_are_unchanged(self):
        # the verify suite's setup; the digest was recorded before any sample
        # was kept, when every call evaluated everything afresh
        system = preset("damped_ho")
        params = system.param_values()
        eom = dual_spencer(system.phi)
        trajs = [
            integrate(assemble_explicit(eom, p), *system.init, (0.0, 10.0), 1e-3)
            for p in (params, dict(params, k=params["k"] * 1.1))
        ]
        values = []
        envelope = _envelope(0.0, 10.0)
        for case_seed in range(30_007, 30_011):
            variation = _fixed_boundary_variation(random.Random(case_seed), 0.0, 10.0, envelope)
            for form in ("pre", "post"):
                for traj in trajs:
                    values.append(first_variation(traj, system.phi, variation, params, form))
        digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
        assert digest == "5cb452c038a529ff362ea6050e702747c587f7745fa321beef24bb3a68b85ec6"


class _MiniSystem:
    """Duck-typed stand-in for a parsed system in oracle tests."""

    def __init__(self, phi, oracle_forces, params, init, time, name="mini"):
        self.phi = phi
        self.oracle_forces = oracle_forces
        self._params = params
        self.init = init
        self.time = time
        self.name = name
        self.n = phi.n

    def param_values(self):
        return dict(self._params)


class TestOracle:
    def test_matching_laws_agree(self):
        f = sinusoid_signal("f", Fraction(3, 10), Fraction(6, 5), 0)
        fe = Expr.var(signal_symbol(f))
        force = -K * X - B * V + fe
        system = _MiniSystem(
            VerticalOneForm((force,), (M * V,)),
            (force,),
            {"k": 1.0, "m": 1.0, "b": 0.1},
            ((1.0,), (0.0,)),
            (0.0, 20.0, 1e-3),
        )
        report = oracle_compare(system)
        assert report.max_divergence <= 1e-10

    def test_corrupted_state_detected(self):
        force_phi = -(K + 1) * X - B * V
        force_newton = -K * X - B * V
        system = _MiniSystem(
            VerticalOneForm((force_phi,), (M * V,)),
            (force_newton,),
            {"k": 1.0, "m": 1.0, "b": 0.1},
            ((1.0,), (0.0,)),
            (0.0, 20.0, 1e-3),
        )
        report = oracle_compare(system)
        assert report.max_divergence > 1e-3

    def test_time_clause_required(self):
        system = _MiniSystem(
            VerticalOneForm((-K * X,), (M * V,)), (-K * X,), HO_PARAMS, ((1.0,), (0.0,)), None
        )
        with pytest.raises(MechError, match="oracle comparison requires a time clause"):
            oracle_compare(system)

    def test_oracle_residuals(self):
        eom = newton_oracle_eom((-K * X,), 1)
        assert eom.residuals == (-K * X - M * Expr.var(acc(0)),)


@pytest.fixture
def integrated(monkeypatch):
    """The law of every ``dynamics.integrate`` call, in call order."""
    calls = []
    real = dynamics.integrate
    monkeypatch.setattr(
        dynamics, "integrate", lambda ode, *args: calls.append(ode.law) or real(ode, *args)
    )
    return calls


# an oracle force beside a state-dependent momentum: the oracle's own mass is m
STATE_MASS_ORACLE = """\
system "statemass" {
  parameter m = 1
  parameter k = 1
  coordinate x
  force x: -k*x
  momentum x: (m + x^2)*x'
  oracle x: -k*x
  init x = 1, x' = 0
  time 0 .. 1 step 1e-2
}
"""


class TestOracleShortcut:
    """``oracle_compare`` integrates nothing when the oracle's generated law
    is the derived one, given as the derived trajectory's law or assembled,
    on the premise pinned here: the same law on the same inputs gives a
    bitwise identical trajectory."""

    @staticmethod
    def laws(system):
        params = system.param_values()
        return (
            assemble_explicit(dual_spencer(system.phi), params),
            assemble_explicit(newton_oracle_eom(system.oracle_forces, system.n), params),
        )

    @staticmethod
    def run(ode, system, method):
        a, b, h = system.time
        return integrate(ode, *system.init, (a, b), h, method)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_same_law_text_gives_the_same_trajectory(self, name, method):
        system = preset(name)
        derived_ode, oracle_ode = self.laws(system)
        assert oracle_ode.law == derived_ode.law
        derived = self.run(derived_ode, system, method)
        oracle = self.run(oracle_ode, system, method)
        assert np.array_equal(oracle.xs, derived.xs)
        assert np.array_equal(oracle.vs, derived.vs)
        assert oracle_compare(system, method, derived).max_divergence == 0.0

    @staticmethod
    def tiny_extra_term():
        oracle = "oracle x: -k*x - b*x' + sig(f)"
        assert oracle in PRESETS["damped_ho"]
        return parse_system(PRESETS["damped_ho"].replace(oracle, oracle + " + 1/1000000000*x"))

    def test_a_tiny_extra_oracle_term_is_integrated(self, integrated):
        system = self.tiny_extra_term()
        derived_ode, oracle_ode = self.laws(system)
        assert oracle_ode.law != derived_ode.law
        derived = self.run(derived_ode, system, "rk4")  # not through dynamics' name
        report = oracle_compare(system, "rk4", derived)
        assert integrated == [oracle_ode.law]
        assert report.max_divergence > 0

    def test_a_tiny_extra_oracle_term_integrates_both_laws(self, integrated):
        system = self.tiny_extra_term()
        derived_ode, oracle_ode = self.laws(system)
        report = oracle_compare(system)
        assert integrated == [derived_ode.law, oracle_ode.law]
        assert 0 < report.max_divergence < 1e-6

    def test_a_derived_of_the_same_law_integrates_nothing(self, integrated):
        system = preset("damped_ho")
        derived = self.run(self.laws(system)[0], system, "rk4")
        assert oracle_compare(system, "rk4", derived) == OracleReport(0.0)
        assert integrated == []

    def test_a_hand_built_derived_integrates_the_oracle_once(self, integrated):
        system = preset("damped_ho")
        derived_ode, oracle_ode = self.laws(system)
        run = self.run(derived_ode, system, "rk4")
        hand_built = Trajectory(run.taus, run.xs, run.vs, run.h)
        assert hand_built.law is None
        assert oracle_compare(system, "rk4", hand_built) == OracleReport(0.0)
        assert integrated == [oracle_ode.law]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_one_source_is_not_integrated(self, name, integrated):
        assert oracle_compare(preset(name)).max_divergence == 0.0
        assert integrated == []

    @pytest.mark.parametrize("name", [*sorted(PRESETS), "statemass"])
    def test_an_oracle_law_has_a_constant_mass(self, name):
        # so a derived law of the same source cannot meet a singular mass mid-run
        system = preset(name) if name in PRESETS else parse_system(STATE_MASS_ORACLE)
        assert mass_and_force(newton_oracle_eom(system.oracle_forces, system.n))[2]
        derived_ode, oracle_ode = self.laws(system)
        assert "_singular_mass" not in oracle_ode.law
        assert ("_singular_mass" in derived_ode.law) == (name == "statemass")


class TestLawObject:
    """One ExplicitODE per law: two are equal, and hash equal, exactly when
    their ``n`` and law source are; ``rhs`` takes no part in it."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_two_assemblies_are_one_law(self, name):
        system = preset(name)
        first, second = (
            assemble_explicit(dual_spencer(system.phi), system.param_values()) for _ in range(2)
        )
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert ExplicitODE(first.n, first.law, first.time) == first

    def test_an_extra_oracle_term_is_another_law(self):
        derived_ode, oracle_ode = TestOracleShortcut.laws(TestOracleShortcut.tiny_extra_term())
        assert derived_ode.n == oracle_ode.n
        assert derived_ode != oracle_ode

    def test_a_replaced_rhs_is_the_same_law_and_integrates(self):
        ode = ho_ode(damping=True, params={"k": 1.0, "m": 2.0, "b": 0.1})
        calls = []

        def rhs(t, x, v):
            calls.append(t)
            return ode.rhs(t, x, v)

        traced = dataclasses.replace(ode, rhs=rhs)
        assert traced == ode and hash(traced) == hash(ode)
        assert traced.rhs(0.5, [1.0], [0.0]) == ode.rhs(0.5, [1.0], [0.0])
        assert calls == [0.5]
        got, want = (integrate(law, [1.0], [0.0], (0.0, 1.0), 0.1) for law in (traced, ode))
        assert got.law is traced
        assert np.array_equal(got.xs, want.xs) and np.array_equal(got.vs, want.vs)

    def test_default_rhs_is_sample_on_one_row(self):
        ode = ho_ode(damping=True, params={"k": 1.0, "m": 2.0, "b": 0.1})
        assert ode.rhs(0.3, [0.5], [0.2]) == ode.sample([0.3], [[0.5]], [[0.2]])


class TestInvertMass:
    @staticmethod
    def mass(momentum):
        return mass_and_force(dual_spencer(VerticalOneForm((-K * X,), (momentum,))))[0]

    @pytest.mark.parametrize("momentum", [M * M * V, M * K * V], ids=["m^2", "m*k"])
    def test_an_entry_beyond_the_float_range_is_refused(self, momentum):
        # m^2 overflows in the float power, m*k multiplies to inf
        with pytest.raises(MechError, match="^a mass matrix entry is beyond the float range$"):
            invert_mass(self.mass(momentum), {"m": 1e200, "k": 1e200})

    def test_an_inverse_beyond_the_float_range_is_refused(self):
        # pivots of 1e-11 pass the threshold, but the inverse's corner,
        # -1e300 / 1e-22, is beyond the float range
        x0, x1 = Expr.var(coord(0)), Expr.var(coord(1))
        v0, v1 = Expr.var(vel(0)), Expr.var(vel(1))
        tiny, huge = Fraction(1, 10**11), Fraction(10**300)
        phi = VerticalOneForm((-x0, -x1), (tiny * v0 + huge * v1, tiny * v1))
        with pytest.raises(MechError, match="^the inverse mass matrix is beyond the float range$"):
            assemble_explicit(dual_spencer(phi), {})

    def test_exact_parameters_convert_only_where_the_mass_uses_them(self):
        params = {"m": Fraction(1, 4), "k": Fraction(10) ** 400}
        assert invert_mass(self.mass(M * V), params) == [[4.0]]
        with pytest.raises(MechError, match="beyond the float range"):
            invert_mass(self.mass(K * V), params)


class TestCsv:
    def test_header_and_determinism(self, tmp_path):
        traj = integrate(ho_ode(), [1.0], [0.0], (0.0, 0.1), 1e-2)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trajectory_csv(traj, p1)
        write_trajectory_csv(traj, p2)
        text = p1.read_text()
        assert text.splitlines()[0] == "tau,x0,v0"
        assert text == p2.read_text()

    def test_full_precision_roundtrip(self, tmp_path):
        traj = integrate(ho_ode(), [1.0], [0.0], (0.0, 0.1), 1e-2)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        rows = path.read_text().splitlines()[1:]
        for k, row in enumerate(rows):
            tau, x0, v0 = (float(c) for c in row.split(","))
            assert tau == traj.taus[k]
            assert x0 == traj.xs[k, 0]
            assert v0 == traj.vs[k, 0]

    def test_audit_columns(self, tmp_path):
        traj = integrate(ho_ode(), [1.0], [0.0], (0.0, 0.1), 1e-2)
        L = Expr.const(half) * M * V**2 - Expr.const(half) * K * X**2
        dec = Decomposition(L, VerticalOneForm.zero(1), "user-declared")
        report = energy_audit(traj, dec, HO_PARAMS)
        path = tmp_path / "audit.csv"
        write_trajectory_csv(traj, path, report)
        assert path.read_text().splitlines()[0] == "tau,x0,v0,E,P,rho"


def _forking_table():
    """A one-coordinate trajectory just large enough for its CSV to fork:
    14 blocks, the last short."""
    rows = CSV_FORK_VALUES // 3 + 1
    rng = np.random.default_rng(rows)
    xs, vs = rng.normal(size=(2, rows, 1)) * 10.0 ** rng.integers(-9, 9, size=(2, rows, 1))
    return Trajectory(np.arange(rows) * 1e-3, xs, vs, 1e-3)


def _expected_csv(traj) -> bytes:
    rows = np.hstack([traj.taus[:, None], traj.xs, traj.vs]).tolist()
    lines = ["tau,x0,v0"] + [",".join(f"{value:.17g}" for value in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestForkedCsv:
    """A large table's odd blocks come from a forked child; every way the
    child can be missing or fail gives the same bytes."""

    def written(self, tmp_path, traj):
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        return path.read_bytes()

    def test_two_cpus_fork_one_child(self, cpus, forks, tmp_path):
        cpus(2)
        traj = _forking_table()
        assert self.written(tmp_path, traj) == _expected_csv(traj)
        assert len(forks) == 1

    def test_one_cpu_writes_serially(self, cpus, forks, tmp_path):
        cpus(1)
        traj = _forking_table()
        assert self.written(tmp_path, traj) == _expected_csv(traj)
        assert forks == []

    def test_no_fork_writes_serially(self, cpus, monkeypatch, tmp_path):
        cpus(2)
        monkeypatch.delattr(os, "fork")
        traj = _forking_table()
        assert self.written(tmp_path, traj) == _expected_csv(traj)

    def test_a_fork_that_fails_writes_serially(self, cpus, monkeypatch, tmp_path):
        cpus(2)

        def refused():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refused)
        traj = _forking_table()
        assert self.written(tmp_path, traj) == _expected_csv(traj)

    @pytest.mark.parametrize("sent", [0, 1, 3])
    def test_a_child_killed_after_some_blocks_gives_the_same_bytes(
        self, sent, cpus, forks, monkeypatch, tmp_path
    ):
        cpus(2)

        def killed_after(send, block, starts):
            for start in starts[:sent]:
                send(block(start))
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(dynamics, "_send_blocks", killed_after)
        traj = _forking_table()
        assert self.written(tmp_path, traj) == _expected_csv(traj)
        assert len(forks) == 1

    @pytest.mark.parametrize("whole", [0, 2])
    def test_a_block_cut_short_gives_the_same_bytes(
        self, whole, cpus, forks, monkeypatch, tmp_path
    ):
        # the child sends ``whole`` blocks, then half of the next one
        cpus(2)
        real = forking._write_all
        count = []

        def cut(fd, data):
            if len(count) == whole:
                real(fd, data[: len(data) // 2])
                os.kill(os.getpid(), signal.SIGKILL)
            count.append(1)
            real(fd, data)

        monkeypatch.setattr(forking, "_write_all", cut)
        traj = _forking_table()
        assert self.written(tmp_path, traj) == _expected_csv(traj)
        assert len(forks) == 1

    def test_a_write_that_raises_kills_and_reaps_the_child(
        self, cpus, forks, monkeypatch
    ):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        cpus(2)
        kills = []
        real = os.kill

        def recorded(pid, sig):
            kills.append((pid, sig))
            real(pid, sig)

        monkeypatch.setattr(os, "kill", recorded)
        with pytest.raises(OSError):
            write_trajectory_csv(_forking_table(), "/dev/full")
        assert kills == [(forks[0], signal.SIGKILL)]
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_simulate_to_a_full_device_exits_2(self, cpus, forks, capsys):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        cpus(2)
        code = main(["simulate", "damped_ho", "--audit", "--out", "/dev/full"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "No space left on device" in err
        assert len(forks) == 1
