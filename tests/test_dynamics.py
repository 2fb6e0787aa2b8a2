import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jetmech import dynamics
from jetmech.dynamics import (
    Trajectory,
    VariationField,
    accelerations_on,
    assemble_explicit,
    energy_audit,
    first_variation,
    integrate,
    mass_and_force,
    newton_oracle_eom,
    oracle_compare,
    simpson_uniform,
    transversality_term,
    write_trajectory_csv,
)
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
    signal_symbol,
    sinusoid_signal,
    vel,
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
        return VariationField.from_samples(delta, ddot, vanishes_at_a=True)

    def test_vanishes_on_solutions(self):
        variation = self.sine_variation()
        norm = 1.0
        value = first_variation(self.traj, self.phi, variation, self.params, "pre")
        assert abs(value) <= 1e-5 * norm

    def test_zero_variation_gives_zero(self):
        variation = VariationField.from_samples(
            np.zeros_like(self.traj.taus), np.zeros_like(self.traj.taus)
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
            variation = VariationField.from_exprs(t * (Expr.const(10) - t) * poly / 25)
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
        variation = VariationField.from_exprs(Expr.var(TAU) / 10)
        delta, _ = variation.sample_on(self.traj.taus, self.traj.h)
        integrand = np.zeros_like(self.traj.taus)
        for i, r in enumerate(dual_spencer(self.phi).residuals):
            fn = compile_expr(r, self.params, vectorized=True)
            integrand += fn(self.traj.taus, self.traj.xs.T, self.traj.vs.T, accels.T) * delta[:, i]
        post = first_variation(self.traj, self.phi, variation, self.params, "post")
        ta, tb = transversality_term(self.traj, self.phi, variation, self.params)
        assert post == simpson_uniform(integrand, self.traj.h) + (tb - ta)

    def test_hand_built_trajectory_has_no_accelerations(self):
        taus = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(taus, np.zeros((11, 1)), np.ones((11, 1)), 0.1)
        variation = VariationField.from_exprs(Expr.var(TAU))
        # the pre form never needs them
        assert abs(first_variation(traj, ho_phi(), variation, HO_PARAMS, "pre") - 1.0) < 1e-12
        with pytest.raises(MechError, match="without a law"):
            first_variation(traj, ho_phi(), variation, HO_PARAMS, "post")

    def test_post_without_boundary_plus_theta(self):
        t = Expr.var(TAU)
        variation = VariationField.from_exprs(t / 10)
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
        variation = VariationField.from_exprs(Expr.const(1))
        ta, tb = transversality_term(traj, ho_phi(), variation, HO_PARAMS)
        assert abs(tb - 0.5) < 1e-15

    def test_transversality_zero_at_a_for_ramp(self):
        taus = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(taus, np.zeros((11, 1)), np.ones((11, 1)), 0.1)
        variation = VariationField.from_exprs(Expr.var(TAU))
        ta, _ = transversality_term(traj, ho_phi(), variation, HO_PARAMS)
        assert ta == 0.0

    def test_sampled_variation_is_rows_never_transposed(self):
        taus = self.traj.taus
        column = VariationField.from_samples(np.sin(taus))  # 1-D: one coordinate
        delta, ddot = column.sample_on(taus, self.traj.h)
        assert delta.shape == ddot.shape == (len(taus), 1)
        row = VariationField.from_samples(np.sin(taus).reshape(1, -1))
        with pytest.raises(ValueError):
            row.sample_on(taus, self.traj.h)

    def test_flagged_variation_validated(self):
        bad = VariationField.from_samples(
            np.ones_like(self.traj.taus), np.zeros_like(self.traj.taus),
            vanishes_at_a=True,
        )
        with pytest.raises(ValueError):
            bad.sample_on(self.traj.taus, self.traj.h)


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
