"""End-to-end run of a two-coordinate system through the whole pipeline."""

import math

import numpy as np

from jetmech.cli import main
from jetmech.dsl import parse_system
from jetmech.dynamics import assemble_explicit, energy_audit, integrate, oracle_compare
from jetmech.spencer import dual_spencer, spencer_residual
from jetmech.symexpr import Expr, acc, coord, param, vel

COUPLED = """
system "coupled" {
  parameter m = 1
  parameter k = 1
  coordinate x
  coordinate y
  force x: -k*x - k*(x - y)
  force y: -k*y - k*(y - x)
  momentum x: m*x'
  momentum y: m*y'
  lagrangian: m*x'^2/2 + m*y'^2/2 - k*x^2/2 - k*y^2/2 - k*(x - y)^2/2
  oracle x: -k*x - k*(x - y)
  oracle y: -k*y - k*(y - x)
  init x = 1, x' = 0, y = 0, y' = 0
  time 0 .. 10 step 1e-3
}
"""


def normal_mode_solution(taus):
    # unit masses and springs: symmetric mode at 1, antisymmetric at sqrt(3)
    s = 0.5 * np.cos(taus)
    a = 0.5 * np.cos(math.sqrt(3.0) * taus)
    return s + a, s - a


def test_coupled_oscillator_pipeline(tmp_path, capsys):
    spec = parse_system(COUPLED)
    assert spec.n == 2

    # symbolic derivation matches the hand-written residuals
    X, Y = Expr.var(coord(0)), Expr.var(coord(1))
    AX, AY = Expr.var(acc(0)), Expr.var(acc(1))
    K, M = Expr.var(param("k")), Expr.var(param("m"))
    eom = dual_spencer(spec.phi)
    assert eom.residuals == (
        -2 * K * X + K * Y - M * AX,
        K * X - 2 * K * Y - M * AY,
    )

    # declared split reconstructs (pure Lagrangian system)
    dec = spec.declared_decomposition()
    assert dec.anti_exact.is_zero

    # trajectory matches the normal-mode solution
    params = spec.param_values()
    ode = assemble_explicit(dual_spencer(spec.phi), params)
    traj = integrate(ode, spec.init[0], spec.init[1], (0.0, 10.0), 1e-3)
    ref_x, ref_y = normal_mode_solution(traj.taus)
    assert np.abs(traj.xs[:, 0] - ref_x).max() <= 1e-8
    assert np.abs(traj.xs[:, 1] - ref_y).max() <= 1e-8

    # integrable section, conserved energy, matching oracle
    assert np.abs(spencer_residual(traj)).max() <= 5e-6
    audit = energy_audit(traj, dec, params)
    assert audit.relative_drift <= 1e-10
    assert oracle_compare(spec).max_divergence <= 1e-10

    # CLI round trip: derive text and four-column CSV
    path = tmp_path / "coupled.mech"
    path.write_text(COUPLED)
    assert main(["derive", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2*k*x - k*y + m*x'' = 0" in out
    assert "explicit: m*x'' = -2*k*x + k*y" in out
    out_csv = tmp_path / "coupled.csv"
    assert main(["simulate", str(path), "--out", str(out_csv), "--audit", "--oracle"]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "tau,x0,x1,v0,v1,E,P,rho"
