"""Bitwise equivalence of the generated kernel with the per-call loops.

The reference below is the original pure-Python numeric path, kept
verbatim: a law callable per system (three closure variants around
``math_compile``, which evaluates ``expr_source`` on Python floats with
``math``'s sin/cos, as the kernel does), the list-per-coordinate RK4 and
RKF45 loops that call it, the per-sample Hermite resampling, the
per-sample acceleration loop and the per-element CSV writer. Every trajectory, acceleration table and CSV
file the kernel produces must match it bit for bit, and a CSV must match it
whether one process writes it or a forked child formats its odd blocks.
The reference's list ``_solve_pivoting`` also checks the kernel's emitted elimination directly,
on seeded matrices with ties, near-singular pivots, infinities and NaN.

The reference sums with builtin ``sum()``. Up to Python 3.11 that adds
left to right from 0, which the kernel reproduces; from 3.12 on it
compensates rounding, so the reference itself changes and the module is
skipped there.
"""

import dataclasses
import hashlib
import itertools
import math
import random
import re
import sys

import numpy as np
import pytest

from jetmech.dsl import parse_system, preset, PRESETS
from jetmech import dynamics
from jetmech.dynamics import (
    _CSV_BLOCK_ROWS,
    CSV_FORK_VALUES,
    _RKF_A,
    _RKF_B4,
    _RKF_ERR,
    PIVOT_THRESHOLD,
    BalanceReport,
    ExplicitODE,
    Trajectory,
    _solver,
    accelerations_on,
    assemble_explicit,
    energy_audit,
    integrate,
    mass_and_force,
    write_trajectory_csv,
)
from jetmech.errors import SingularMassError
from jetmech.spencer import dual_spencer
from jetmech.symexpr import compile_expr, expr_source

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="builtin sum() compensates float rounding from Python 3.12 on",
)

# ---------------------------------------------------------------------------
# reference: the original per-call numeric path
# ---------------------------------------------------------------------------


def _solve_pivoting(A: list, b: list, threshold: float, state_desc: str) -> list:
    """Gaussian elimination with partial pivoting on small dense systems."""
    n = len(b)
    M = [row[:] for row in A]
    rhs = b[:]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(M[r][col]))
        pivot = M[pivot_row][col]
        if abs(pivot) < threshold:
            raise SingularMassError(
                f"mass matrix singular (pivot {pivot:.3e} below threshold) at {state_desc}",
            )
        if pivot_row != col:
            M[col], M[pivot_row] = M[pivot_row], M[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        inv = 1.0 / M[col][col]
        for r in range(col + 1, n):
            factor = M[r][col] * inv
            if factor != 0.0:
                for c in range(col, n):
                    M[r][c] -= factor * M[col][c]
                rhs[r] -= factor * rhs[col]
    out = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = rhs[r]
        for c in range(r + 1, n):
            s -= M[r][c] * out[c]
        out[r] = s / M[r][r]
    return out


def math_compile(e, params):
    """``e`` as ``f(t, x, v, a=None)`` on Python floats, with ``math``'s
    sin/cos."""
    namespace = {"sin": math.sin, "cos": math.cos}
    src = f"def _compiled(t, x, v, a=None):\n    return {expr_source(e, params)}\n"
    exec(src, namespace)  # noqa: S102 - generated locally
    return namespace["_compiled"]


def reference_rhs(eom, params):
    """The law as a callable, assembled as the three original closures."""
    n, pivot_threshold = eom.n, PIVOT_THRESHOLD
    mass_sym, force_sym, constant = mass_and_force(eom)
    force_fns = [math_compile(force_sym[i], params) for i in range(n)]

    if constant:
        M0 = [
            [math_compile(mass_sym[i][j], params)(0.0, (), ()) for j in range(n)]
            for i in range(n)
        ]
        if n == 1:
            pivot = M0[0][0]
            if abs(pivot) < pivot_threshold:
                raise SingularMassError(
                    f"mass matrix singular (pivot {pivot:.3e} below threshold)"
                )
            inv = 1.0 / pivot
            f0 = force_fns[0]

            def rhs(t, x, v):
                return [f0(t, x, v) * inv]

        else:
            # prefactor by solving against unit vectors
            inv_cols = []
            for j in range(n):
                e = [0.0] * n
                e[j] = 1.0
                inv_cols.append(
                    _solve_pivoting(M0, e, pivot_threshold, "constant mass matrix")
                )
            inv_rows = [[inv_cols[j][i] for j in range(n)] for i in range(n)]

            def rhs(t, x, v):
                c = [fn(t, x, v) for fn in force_fns]
                return [
                    sum(inv_rows[i][j] * c[j] for j in range(n)) for i in range(n)
                ]

    else:
        mass_fns = [
            [math_compile(mass_sym[i][j], params) for j in range(n)] for i in range(n)
        ]

        def rhs(t, x, v):
            M = [[mass_fns[i][j](t, x, v) for j in range(n)] for i in range(n)]
            c = [fn(t, x, v) for fn in force_fns]
            return _solve_pivoting(
                M, c, pivot_threshold, f"t={t!r}, x={list(x)!r}, v={list(v)!r}"
            )

    return rhs


def _finite(state):
    return all(math.isfinite(s) for s in state)


def _rk4(rhs, x0, v0, taus, h, n):
    N = len(taus) - 1
    xs = [list(x0)]
    vs = [list(v0)]
    x, v = list(x0), list(v0)
    truncated = False
    h2, h6 = h / 2.0, h / 6.0
    for k in range(N):
        t = taus[k]
        try:
            a1 = rhs(t, x, v)
            x2 = [x[i] + h2 * v[i] for i in range(n)]
            v2 = [v[i] + h2 * a1[i] for i in range(n)]
            a2 = rhs(t + h2, x2, v2)
            x3 = [x[i] + h2 * v2[i] for i in range(n)]
            v3 = [v[i] + h2 * a2[i] for i in range(n)]
            a3 = rhs(t + h2, x3, v3)
            x4 = [x[i] + h * v3[i] for i in range(n)]
            v4 = [v[i] + h * a3[i] for i in range(n)]
            a4 = rhs(t + h, x4, v4)
            x = [x[i] + h6 * (v[i] + 2.0 * v2[i] + 2.0 * v3[i] + v4[i]) for i in range(n)]
            v = [v[i] + h6 * (a1[i] + 2.0 * a2[i] + 2.0 * a3[i] + a4[i]) for i in range(n)]
        except (OverflowError, ValueError):
            # float range exceeded inside the compiled law: blow-up
            truncated = True
            break
        if not (_finite(x) and _finite(v)):
            truncated = True
            break
        xs.append(list(x))
        vs.append(list(v))
    return xs, vs, truncated


# Fehlberg 4(5) tableau: 4th-order propagation, 5th-order error estimate.
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3554 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _rkf45_knots(rhs, x0, v0, a_t, b_t, n, atol, rtol, max_step):
    """Adaptive pass; returns accepted knots (t, x, v, accel) and a flag."""
    t = a_t
    x, v = list(x0), list(v0)
    accel = rhs(t, x, v)
    knots = [(t, list(x), list(v), list(accel))]
    dt = min(max_step, (b_t - a_t) / 10.0)
    min_step = 1e-14 * (b_t - a_t)
    truncated = False
    while t < b_t - 1e-15 * (b_t - a_t):
        dt = min(dt, b_t - t)
        kx = [None] * 6
        kv = [None] * 6
        try:
            for s in range(6):
                xs_ = [x[i] + dt * sum(_RKF_A[s][r] * kx[r][i] for r in range(s)) for i in range(n)]
                vs_ = [v[i] + dt * sum(_RKF_A[s][r] * kv[r][i] for r in range(s)) for i in range(n)]
                kx[s] = vs_
                kv[s] = rhs(t + _RKF_C[s] * dt, xs_, vs_)
            err = 0.0
            scale = atol + rtol * max(max(abs(c) for c in x), max(abs(c) for c in v), 1.0)
            for i in range(n):
                ex = dt * sum(_RKF_ERR[s] * kx[s][i] for s in range(6))
                ev = dt * sum(_RKF_ERR[s] * kv[s][i] for s in range(6))
                err = max(err, abs(ex), abs(ev))
        except (OverflowError, ValueError):
            truncated = True
            break
        if not math.isfinite(err):
            truncated = True
            break
        if err <= scale:
            x = [x[i] + dt * sum(_RKF_B4[s] * kx[s][i] for s in range(6)) for i in range(n)]
            v = [v[i] + dt * sum(_RKF_B4[s] * kv[s][i] for s in range(6)) for i in range(n)]
            t = t + dt
            if not (_finite(x) and _finite(v)):
                truncated = True
                break
            accel = rhs(t, x, v)
            knots.append((t, list(x), list(v), list(accel)))
        ratio = (scale / err) ** 0.2 if err > 0.0 else 5.0
        dt = min(max_step, dt * min(5.0, max(0.2, 0.9 * ratio)))
        if dt < min_step:
            truncated = True
            break
    return knots, truncated


def _hermite(y0, d0_, y1, d1_, w, dt):
    h00 = (1 + 2 * w) * (1 - w) ** 2
    h10 = w * (1 - w) ** 2
    h01 = w * w * (3 - 2 * w)
    h11 = w * w * (w - 1)
    return h00 * y0 + h10 * dt * d0_ + h01 * y1 + h11 * dt * d1_


def reference_integrate(rhs, n, x0, v0, interval, h, method,
                        atol=1e-10, rtol=1e-9, max_step=0.02):
    """(taus, xs, vs, truncated), as the original ``integrate`` built them."""
    a_t, b_t = float(interval[0]), float(interval[1])
    N = max(1, int(round((b_t - a_t) / h)))
    taus = np.linspace(a_t, b_t, N + 1)
    h_eff = (b_t - a_t) / N
    x0 = [float(c) for c in x0]
    v0 = [float(c) for c in v0]
    if method == "rk4":
        xs, vs, truncated = _rk4(rhs, x0, v0, taus, h_eff, n)
        m = len(xs)
        return taus[:m], np.array(xs), np.array(vs), truncated

    knots, truncated = _rkf45_knots(rhs, x0, v0, a_t, b_t, n, atol, rtol, max_step)
    knot_ts = np.array([k[0] for k in knots])
    xs_out, vs_out = [], []
    for t in taus:
        if t > knot_ts[-1] + 1e-12 * (b_t - a_t):
            break
        j = int(np.searchsorted(knot_ts, t, side="right") - 1)
        j = min(max(j, 0), len(knots) - 2) if len(knots) > 1 else 0
        t0, x0k, v0k, a0k = knots[j]
        if len(knots) == 1:
            xs_out.append(list(x0k))
            vs_out.append(list(v0k))
            continue
        t1, x1k, v1k, a1k = knots[j + 1]
        dt = t1 - t0
        w = 0.0 if dt == 0 else (t - t0) / dt
        xs_out.append([_hermite(x0k[i], v0k[i], x1k[i], v1k[i], w, dt) for i in range(n)])
        vs_out.append([_hermite(v0k[i], a0k[i], v1k[i], a1k[i], w, dt) for i in range(n)])
    m = len(xs_out)
    return taus[:m], np.array(xs_out), np.array(vs_out), truncated or m < len(taus)


def reference_accelerations_on(traj, rhs):
    # on Python floats, as the kernels evaluate: a numpy scalar gives inf
    # where a float power raises OverflowError, and can set NaN signs apart
    out = np.empty_like(traj.xs)
    for k in range(len(traj.taus)):
        out[k] = rhs(float(traj.taus[k]), traj.xs[k].tolist(), traj.vs[k].tolist())
    return out


def reference_csv(traj, path, report=None):
    n = traj.n
    header = ["tau"] + [f"x{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
    if report is not None:
        header += ["E", "P", "rho"]
    lines = [",".join(header)]
    for k in range(len(traj.taus)):
        row = [f"{traj.taus[k]:.17g}"]
        row += [f"{traj.xs[k, i]:.17g}" for i in range(n)]
        row += [f"{traj.vs[k, i]:.17g}" for i in range(n)]
        if report is not None:
            row += [
                f"{report.E[k]:.17g}",
                f"{report.P[k]:.17g}",
                f"{report.rho[k]:.17g}",
            ]
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

COUPLED_CONSTANT_2 = """\
system "coupled2" {
  parameter m = 111/100
  parameter c = 23/100
  parameter kc = 9/20
  parameter k0 = 1
  parameter k1 = 97/100
  parameter b0 = 3/20
  parameter b1 = 3/25
  coordinate x
  coordinate y
  signal f = sinusoid(3/20, 1, 0)
  force x: -k0*x - b0*x' - x^3/5 + kc*(y - x) + sig(f)
  momentum x: m*x' + c*y'
  force y: -k1*y - b1*y' - y^3/8 + kc*(x - y)
  momentum y: m*y' + c*x'
  init x = 4/5, y = -3/4, x' = 1/10, y' = 0
  time 0 .. 3/2 step 1e-3
}
"""

COUPLED_CONSTANT_3 = """\
system "coupled3" {
  parameter m = 107/100
  parameter c = 27/100
  parameter kc = 11/25
  parameter k = 1
  parameter b = 3/20
  coordinate x
  coordinate y
  coordinate z
  signal f = sinusoid(1/10, 21/20, 0)
  force x: -k*x - b*x' - x^3/5 + kc*(y - x) + sig(f)
  momentum x: m*x' + c*y'
  force y: -k*y - b*y' - y^3/6 + kc*(x - y) + kc*(z - y)
  momentum y: m*y' + c*x' + c*z'
  force z: -k*z - b*z' - z^3/7 + kc*(y - z)
  momentum z: m*z' + c*y'
  init x = 4/5, y = -7/10, z = 3/4, x' = -1/10, y' = 1/5, z' = 0
  time 0 .. 3/2 step 1e-3
}
"""

STATE_MASS_2 = """\
system "statemass2" {
  parameter m = 11/10
  parameter c = 1/4
  parameter kc = 2/5
  coordinate x
  coordinate y
  signal f = sinusoid(1/8, 1, 0)
  force x: -x - x'/8 - x^3/5 + kc*(y - x) + sig(f)
  momentum x: (m + c*y^2)*x'
  force y: -y - y'/6 - y^3/9 + kc*(x - y)
  momentum y: m*y'
  init x = 17/20, y = -4/5, x' = 0, y' = 1/10
  time 0 .. 3/2 step 1e-3
}
"""

STATE_MASS_3 = """\
system "statemass3" {
  parameter m = 21/20
  parameter c = 3/10
  parameter kc = 9/20
  coordinate x
  coordinate y
  coordinate z
  force x: -x - x'/7 - x^3/5 + kc*(y - x)
  momentum x: (m + c*y^2)*x'
  force y: -y - y'/7 - y^3/5 + kc*(x - y) + kc*(z - y)
  momentum y: m*y'
  force z: -z - z'/7 - z^3/5 + kc*(y - z)
  momentum z: m*z'
  init x = 3/4, y = -17/20, z = 4/5, x' = 1/5, y' = 0, z' = -1/10
  time 0 .. 3/2 step 1e-3
}
"""

FORCED = """\
system "forced" {
  parameter m = 2
  parameter k = 3/2
  coordinate x
  signal f = sinusoid(2/5, 7/5, 1/3)
  signal w = polynomial(1/2, -1/4, 1/8)
  force x: -k*x - x'/10 + sig(f) + t^2*x/50 + sig(w)*x'/20
  momentum x: m*x'
  init x = 1/2, x' = -1/4
  time 0 .. 5 step 1e-3
}
"""

# M = [[m, c, 0], [k + x^2, m, c], [0, c, m]]: column 0 pivots on row 1 while
# |x| > sqrt(m - k) and on row 0 after the damping has brought x below it
PIVOT_SWAP_3 = """\
system "pivotswap3" {
  parameter m = 1
  parameter c = 1/4
  parameter k = 1/2
  parameter kc = 2/5
  coordinate x
  coordinate y
  coordinate z
  force x: -x - x'/8 - x^3/5 + kc*(y - x)
  momentum x: m*x' + c*y'
  force y: -y - y'/8 + kc*(x - y) + kc*(z - y)
  momentum y: (k + x^2)*x' + m*y' + c*z'
  force z: -z - z'/8 + kc*(y - z)
  momentum z: c*y' + m*z'
  init x = 1, y = -1/2, z = 1/4, x' = 0, y' = 0, z' = 0
  time 0 .. 3 step 1e-3
}
"""

# every time and initial state is written as a negative zero
SIGNED_ZERO = """\
system "signedzero" {
  parameter m = 2
  coordinate x
  coordinate y
  signal f = sinusoid(2/5, 7/5, 1/3)
  force x: -x - x'/10 + sig(f) + t*y/50
  momentum x: m*x'
  force y: -y + x^2/4
  momentum y: (m + x^2)*y'
  init x = -0, y = -0.0, x' = -0e3, y' = -0/7
  time -0.0 .. 2 step 1e-3
}
"""

# the identity mass: the law is 0.0 + r_0 + 0.0 * r_1 per coordinate
UNIT_MASS_2 = """\
system "unitmass2" {
  parameter k = 1
  coordinate x
  coordinate y
  force x: -k*x
  momentum x: x'
  force y: -y
  momentum y: y'
  init x = 1, y = 0, x' = 0, y' = 1
  time 0 .. 1 step 1e-2
}
"""

# x' squared blows up at t = 1, so the trajectory is truncated
BLOW_UP = """\
system "blowup" {
  parameter m = 1
  coordinate x
  force x: x'^2
  momentum x: m*x'
  init x = 0, x' = 1
  time 0 .. 2 step 1e-3
}
"""

GENERATED = {
    "coupled2": COUPLED_CONSTANT_2,
    "coupled3": COUPLED_CONSTANT_3,
    "statemass2": STATE_MASS_2,
    "statemass3": STATE_MASS_3,
    "forced": FORCED,
    "pivotswap3": PIVOT_SWAP_3,
    "signedzero": SIGNED_ZERO,
}


def _system(name):
    return preset(name) if name in PRESETS else parse_system(GENERATED[name])


def _ode(system):
    return assemble_explicit(dual_spencer(system.phi), system.param_values())


def _reference_rhs(system):
    return reference_rhs(dual_spencer(system.phi), system.param_values())


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


AUDITED = ("harmonic", "damped_ho")  # the presets that declare their split

# sha256 of each system's emitted law source: a constant mass entry is
# evaluated by compile_expr before it is inverted, so these pin its value
# bit for bit
LAW_SHA256 = {
    "damped_ho": "9338f6878f47c3df5d308206f658a08b02acc3a1abc619845f6fd64521da5149",
    "duffing": "3c78ba6608a4b5cd0f7ff9d94d5816a853cc619c67244e3f0980612330781a56",
    "harmonic": "61232a1314e72573423955904bd74da4a9524c634764e174b5efc417f27c3a47",
    "vanderpol": "f847882771c991b30b404f7b85802e8e39ee4b39a1e6e238037449a2c14c9f7a",
    "coupled2": "60bef9889a906d1ea3043a53c7dcc372e050cc83612ee0e5bd509621ed4c9f9b",
    "coupled3": "cc464e4817b57291dad519dc7ad4b97d307c308f868ce38aaa1c7b9a8aac9ae8",
    "forced": "d5b9c82bdc67bb6ee44dc2643cd066e073fed68e1d8ad2ffb6adbd11eacae7c1",
    "pivotswap3": "8076e421d4127c0bcaddbbc227da2a68f978129615e47f37ee2061aa9ecc35bb",
    "signedzero": "6d6221f68dfd9386c1e0882c6ac55ff30f2842ffc3a188ed69963e11fe3e94ae",
    "statemass2": "64b7b29c5651d0433abea9bf33cd82dd0727cb68640461f51bc01ba954a1e27c",
    "statemass3": "8d5d89c9b69dca17b4adc84456f0d453c72eb4067ae2f3ed273946a6edb831bb",
}


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_generated_systems_cover_every_law_form():
    forms = {name: _ode(_system(name)) for name in GENERATED}
    masses = {name: mass_and_force(dual_spencer(_system(name).phi)) for name in GENERATED}
    assert [masses[k][2] for k in ("coupled2", "coupled3")] == [True, True]
    assert [masses[k][2] for k in ("statemass2", "statemass3")] == [False, False]
    assert [forms[k].n for k in ("coupled2", "coupled3", "statemass2", "statemass3")] == [2, 3, 2, 3]
    # the constant mass matrices are not diagonal
    for k in ("coupled2", "coupled3"):
        mass, _, _ = masses[k]
        assert not mass[0][1].is_zero


def _unnamed(ode):
    """The law with each time term put back as the factor it names and the
    stage time read as ``t{s}``: the form the pinned digests were taken of."""
    factors = dict(line.split(" = ", 1) for line in ode.time.splitlines())
    law = re.sub(r"T\{u\}_[0-9]+", lambda name: factors[name.group()], ode.law)
    return law.replace("t{u}", "t{s}")


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(GENERATED))
def test_law_source_is_pinned(name):
    law = _unnamed(_ode(_system(name)))
    assert hashlib.sha256(law.encode()).hexdigest() == LAW_SHA256[name], law


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(GENERATED))
def test_trajectory_and_csv_bitwise(name, method, tmp_path):
    system = _system(name)
    ode = _ode(system)
    x0, v0 = system.init
    a, b, h = system.time
    traj = integrate(ode, x0, v0, (a, b), h, method)
    taus, xs, vs, truncated = reference_integrate(
        _reference_rhs(system), ode.n, x0, v0, (a, b), h, method
    )
    assert _same(traj.taus, taus)
    assert _same(traj.xs, xs)
    assert _same(traj.vs, vs)
    assert traj.truncated == truncated

    report = None
    if name in AUDITED:
        report = energy_audit(traj, system.declared_decomposition(), system.param_values())
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_trajectory_csv(traj, new, report)
    reference_csv(traj, ref, report)
    assert new.read_bytes() == ref.read_bytes()
    if report is not None:
        assert new.read_text().splitlines()[0] == "tau,x0,v0,E,P,rho"


@pytest.mark.parametrize("name", ["damped_ho", "statemass2", "coupled3"])
def test_rhs_matches_reference_law(name):
    system = _system(name)
    ode = _ode(system)
    ref = _reference_rhs(system)
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = float(rng.uniform(0, 5))
        x = rng.uniform(-2, 2, ode.n).tolist()
        v = rng.uniform(-2, 2, ode.n).tolist()
        got = ode.rhs(t, x, v)
        assert isinstance(got, list)
        assert _same(got, ref(t, x, v))


def test_accelerations_on_bitwise():
    system = preset("damped_ho")
    ode = _ode(system)
    traj = integrate(ode, *system.init, system.time[:2], system.time[2])
    reference = reference_accelerations_on(traj, _reference_rhs(system))
    assert _same(accelerations_on(traj, ode), reference)


def test_accelerations_on_state_mass_bitwise():
    system = parse_system(STATE_MASS_3)
    ode = _ode(system)
    traj = integrate(ode, *system.init, system.time[:2], system.time[2], "rkf45")
    reference = reference_accelerations_on(traj, _reference_rhs(system))
    assert _same(accelerations_on(traj, ode), reference)


def _drawn_constant_mass_system(rng, n):
    """A seeded system of ``n`` coordinates with a constant, non-diagonal
    mass for n > 1, and forces of random terms: powers up to 4 of every
    coordinate, velocity and t, sinusoid and polynomial signals, and
    parameters of either sign."""
    names = "xyz"[:n]
    bases = [*names, *(f"{q}'" for q in names), "t", "sig(f)", "sig(w)"]
    lines = [
        'system "drawn" {',
        "  parameter m = 9/4", "  parameter c = 1/3", "  parameter k = -3/2",
        *(f"  coordinate {q}" for q in names),
        "  signal f = sinusoid(2/5, 7/5, 1/3)",
        "  signal w = polynomial(1/2, -1/4, 1/8)",
    ]
    for i, q in enumerate(names):
        terms = []
        for _ in range(rng.randint(1, 4)):
            factors = [rng.choice(("1", "k", "3/7", "-2"))]
            for _ in range(rng.randint(0, 3)):
                base, exp = rng.choice(bases), rng.randint(1, 4)
                factors.append(base if exp == 1 or base.startswith("sig") else f"{base}^{exp}")
            terms.append("*".join(factors))
        coupled = [f"{rng.choice(('c', 'k'))}*{p}'" for j, p in enumerate(names) if abs(i - j) == 1]
        lines.append(f"  force {q}: " + " + ".join(terms))
        lines.append(f"  momentum {q}: " + " + ".join([f"m*{q}'", *coupled]))
    return parse_system("\n".join(lines + ["}"]) + "\n")


def _drawn_rows(rng, n, kind):
    """A 64-sample trajectory built by hand: moderate values and signed
    zeros; with infinities and NaN among them for ``kind`` "special"; and
    for "huge", values whose fourth power is beyond the float range."""
    pool = [0.0, -0.0, 1.0, -1.5]
    if kind == "special":
        pool += [math.inf, -math.inf, math.nan]
    if kind == "huge":
        pool += [1e90, -3e100]

    def value():
        return rng.choice(pool) if rng.random() < 0.2 else rng.uniform(-2.5, 2.5)

    taus = np.linspace(0.0, 3.0, 64)
    xs = [[value() for _ in range(n)] for _ in taus]
    vs = [[value() for _ in range(n)] for _ in taus]
    return Trajectory(taus, xs, vs, taus[1] - taus[0])


def _outcome_on(fn):
    """The table ``fn`` returns, or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def test_column_law_matches_the_reference_rows():
    # a constant mass takes the column law; a table that is not finite goes
    # back to the row loop, which raises OverflowError for a power beyond the
    # float range, as the reference does. The reference's NaN can differ
    # from the row loop's in its sign bit, through its order of operations:
    # so NaN is compared bit for bit with the row loop and by position with
    # the reference, every other value bit for bit with both, and an error
    # by type and message with both
    rng = random.Random("column law")
    finite = fallen_back = raised = 0
    for case in range(120):
        n = 1 + case % 3
        system = _drawn_constant_mass_system(rng, n)
        ode = _ode(system)
        assert ode.column_law is not None
        ref = _reference_rhs(system)
        for kind in ("moderate", "special", "huge"):
            traj = _drawn_rows(rng, n, kind)
            got = _outcome_on(lambda: accelerations_on(traj, ode))
            rows = _outcome_on(lambda: np.array(
                ode.sample(traj.taus.tolist(), traj.xs.tolist(), traj.vs.tolist())
            ).reshape(traj.xs.shape))
            want = _outcome_on(lambda: reference_accelerations_on(traj, ref))
            if isinstance(rows, tuple):
                assert got == rows == want, case
                raised += 1
                continue
            assert _same(got, rows), case
            assert not isinstance(want, tuple), case
            assert _same(np.nan_to_num(got, nan=7.0, posinf=8.0, neginf=9.0),
                         np.nan_to_num(want, nan=7.0, posinf=8.0, neginf=9.0)), case
            if np.isfinite(want).all():
                finite += 1
            else:
                fallen_back += 1
    assert finite > 100 and fallen_back > 80 and raised > 20


def test_state_mass_has_no_column_law():
    assert _ode(parse_system(STATE_MASS_3)).column_law is None


# ---------------------------------------------------------------------------
# time terms: RK4 binds each time-only factor once per stage time, and its
# stage 3 reads stage 2's time and time terms
# ---------------------------------------------------------------------------

# a state-dependent mass whose first pivot is exactly zero at t = 5/8, the
# time of stages 2 and 3 of the step from t = 1/2
SINGULAR_AT_STAGE_2 = """\
system "stage2singular" {
  parameter m = 2
  coordinate x
  coordinate y
  signal w = polynomial(-5/8, 1)
  force x: -x + sig(w)*y/4
  momentum x: sig(w)*x'
  force y: -y + x^2/4
  momentum y: (m + x^2)*y'
  init x = 1, y = 1/2, x' = 0, y' = 0
  time 0 .. 1 step 1/4
}
"""


def _drawn_time_system(rng, n, state_mass):
    """A seeded system of ``n`` coordinates whose forces repeat time-only
    factors, t^2, t^3, a sinusoid, a polynomial signal and a squared signal,
    alone and times coordinates and velocities. With ``state_mass`` the
    first momentum is (m + c*sig(f))*x', so a mass entry reads the signal
    and the solve runs inside the law; otherwise the mass is constant."""
    names = "xyz"[:n]
    timed = ["t", "t^2", "t^3", "sig(f)", "sig(w)", "sig(f)^2", "sig(w)^3"]
    states = [*names, *(f"{q}'" for q in names)]
    lines = [
        'system "timed" {',
        "  parameter m = 9/4", "  parameter c = 1/3", "  parameter k = -3/2",
        *(f"  coordinate {q}" for q in names),
        "  signal f = sinusoid(2/5, 7/5, 1/3)",
        "  signal w = polynomial(1/2, -1/4, 1/8)",
    ]
    for i, q in enumerate(names):
        terms = [f"-{q}", f"-{q}'/10"]
        for _ in range(rng.randint(2, 5)):
            factors = [rng.choice(("1", "k", "3/7", "-2")), *rng.sample(timed, rng.randint(1, 2))]
            if rng.random() < 0.6:
                base = rng.choice(states)
                factors.append(base if rng.random() < 0.5 else f"{base}^{rng.randint(2, 3)}")
            terms.append("*".join(factors))
        own = f"(m + c*sig(f))*{q}'" if state_mass and i == 0 else f"m*{q}'"
        coupled = [f"c*{p}'" for j, p in enumerate(names) if abs(i - j) == 1]
        lines.append(f"  force {q}: " + " + ".join(terms))
        lines.append(f"  momentum {q}: " + " + ".join([own, *coupled]))
    return parse_system("\n".join(lines + ["}"]) + "\n")


def _integrated(ode, ref, x0, v0, interval, h, method):
    """What the kernel and the reference give for one integration: each
    (taus, xs, vs, truncated), or the type and message of what it raises.
    The reference steps from numpy's grid times, so the values it names are
    written as np.float64(...); they are compared as the floats they are."""

    def outcome(run):
        try:
            with np.errstate(all="ignore"):
                return run()
        except (OverflowError, ValueError, SingularMassError) as exc:
            return type(exc), re.sub(r"np\.float64\(([^)]*)\)", r"\1", str(exc))

    def kernel():
        traj = integrate(ode, x0, v0, interval, h, method)
        return traj.taus, traj.xs, traj.vs, traj.truncated

    return outcome(kernel), outcome(
        lambda: reference_integrate(ref, ode.n, x0, v0, interval, h, method)
    )


def _same_outcome(got, want):
    """Equal errors, or bitwise equal arrays and the same truncation."""
    if len(want) == 2 or len(got) == 2:
        return got == want
    return all(_same(a, b) for a, b in zip(got[:3], want[:3])) and got[3] == want[3]


def test_time_terms_match_the_reference():
    # trajectories bitwise, truncation included, on both integrators (RK4
    # alone from the states that blow up, where the reference RKF45 takes
    # seconds to shrink its step); the per-sample and column laws as the
    # column-law test compares them
    rng = random.Random("time terms")
    truncated = whole = state_masses = 0
    for case in range(36):
        n = 1 + case % 3
        state_mass = case % 4 == 3
        system = _drawn_time_system(rng, n, state_mass)
        ode, ref = _ode(system), _reference_rhs(system)
        assert (ode.column_law is None) == state_mass, case
        state_masses += state_mass
        scale = rng.choice((0.5, 2.0, 40.0))  # the last one often blows up
        x0 = [rng.uniform(-scale, scale) for _ in range(n)]
        v0 = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        for method in ("rk4",) if scale == 40.0 else ("rk4", "rkf45"):
            got, want = _integrated(ode, ref, x0, v0, (0.0, 1.5), 1e-2, method)
            assert _same_outcome(got, want), (case, method)
            truncated += want[3] is True
            whole += want[3] is False
        for kind in ("moderate", "special", "huge"):
            traj = _drawn_rows(rng, n, kind)
            got = _outcome_on(lambda: accelerations_on(traj, ode))
            want = _outcome_on(lambda: reference_accelerations_on(traj, ref))
            if isinstance(want, tuple):
                assert got == want, case
                continue
            assert not isinstance(got, tuple), case
            assert _same(np.nan_to_num(got, nan=7.0, posinf=8.0, neginf=9.0),
                         np.nan_to_num(want, nan=7.0, posinf=8.0, neginf=9.0)), case
    assert truncated >= 5 and whole > 40 and state_masses == 9


# reads time as t alone, so its law has no time terms
LINEAR_IN_T = """\
system "linear" {
  coordinate x
  force x: -x + t/3
  momentum x: x'
  init x = 1, x' = 0
  time 0 .. 1 step 1e-2
}
"""


def test_stage_times_are_emitted_only_for_a_law_that_reads_time():
    # a law's locals name what its kernels bind: a time-free law binds no
    # stage time; a timed one binds t2 and t4 and its time terms at RK4's
    # stages 1, 2 and 4, and never a stage-3 time, and its time terms at
    # RKF45's knot and stages 1 to 5; a law that reads t alone binds the
    # stage times and no time term, and runs as the reference does
    def stage_locals(kernel):
        return {
            name for name in kernel.__code__.co_varnames
            if re.fullmatch(r"t[0-9]|tk[0-9]|T(k?[0-9])?_[0-9]+", name)
        }

    free = _ode(preset("harmonic"))
    assert stage_locals(free.rk4) == {"t1"}
    assert stage_locals(free.rkf45) == set()
    timed = _ode(parse_system(FORCED))
    assert stage_locals(timed.rk4) == {
        "t1", "t2", "t4", *(f"T{s}_{k}" for s in (1, 2, 4) for k in range(3))
    }
    assert stage_locals(timed.rkf45) == {
        *(f"tk{s}" for s in range(1, 6)),
        *(f"T{u}_{k}" for u in ("", *(f"k{s}" for s in range(1, 6))) for k in range(3)),
    }
    assert timed.time.splitlines()[0] == "T{u}_0 = t{u}**2"
    assert "T{u}_" in timed.law and "t{s}" not in timed.law
    system = parse_system(LINEAR_IN_T)
    linear = _ode(system)
    assert linear.time == "" and "t{u}" in linear.law
    assert stage_locals(linear.rk4) == {"t1", "t2", "t4"}
    assert stage_locals(linear.rkf45) == {f"tk{s}" for s in range(1, 6)}
    a, b, h = system.time
    for method in ("rk4", "rkf45"):
        got, want = _integrated(linear, _reference_rhs(system), *system.init, (a, b), h, method)
        assert want[3] is False and _same_outcome(got, want), method


def test_a_replaced_rhs_keeps_the_staged_law():
    # the tracer's contract: dataclasses.replace(ode, rhs=...) is the same
    # law, and integrates to the same trajectory; so does the law given by
    # hand, without its column law
    system = parse_system(FORCED)
    ode = _ode(system)
    traced = dataclasses.replace(ode, rhs=lambda t, x, v: ode.rhs(t, x, v))
    assert traced == ode and traced.column_law is ode.column_law
    hand = ExplicitODE(ode.n, ode.law, ode.time)
    assert hand == ode and hand.column_law is None
    a, b, h = system.time
    want = integrate(ode, *system.init, (a, b), h)
    for law in (traced, hand):
        got = integrate(law, *system.init, (a, b), h)
        assert _same(got.xs, want.xs) and _same(got.vs, want.vs)


def test_a_singular_pivot_at_a_shared_stage_time():
    # the pivot vanishes at t = 5/8, RK4's stage-2 time; the kernel names the
    # state as the reference does
    system = parse_system(SINGULAR_AT_STAGE_2)
    a, b, h = system.time
    got, want = _integrated(
        _ode(system), _reference_rhs(system), *system.init, (a, b), h, "rk4"
    )
    assert want[0] is SingularMassError and "at t=0.625, " in want[1]
    assert got == want


def _entry(rng, specials):
    """A matrix or right-side entry; ties, near-threshold values and, when
    ``specials``, infinities and NaN are all common."""
    kind = rng.randrange(10 if specials else 8)
    if kind == 0:
        return 0.0
    if kind == 1:
        return rng.choice((1e-13, -1e-13))
    if kind in (2, 3):
        return rng.choice((1.5, -1.5, 3.0, -3.0))
    if kind == 8:
        return rng.choice((math.inf, -math.inf))
    if kind == 9:
        return math.nan
    return rng.uniform(-4.0, 4.0)


def _outcome(solve, M, b):
    """The solution by ``repr`` (bitwise for floats, NaN as 'nan') or the
    singular-mass message."""
    try:
        return [repr(a) for a in solve(M, b)]
    except SingularMassError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_emitted_elimination_matches_reference(n):
    rng = random.Random(f"elimination:{n}")
    solve = _solver(n)
    singular = swapped = 0
    for _ in range(3000):
        specials = rng.random() < 0.25
        M = [[_entry(rng, specials) for _ in range(n)] for _ in range(n)]
        b = [_entry(rng, specials) for _ in range(n)]
        reference = _outcome(
            lambda M, b: _solve_pivoting(M, b, PIVOT_THRESHOLD, "constant mass matrix"), M, b
        )
        assert _outcome(solve, M, b) == reference, (M, b)
        singular += isinstance(reference, str)
        swapped += max(range(n), key=lambda r: abs(M[r][0])) != 0
    # both outcomes and, for n > 1, first-column swaps are common
    assert 30 < singular < 2900
    assert n == 1 or swapped > 300


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_pivot_row_changes_mid_run(method):
    system = parse_system(PIVOT_SWAP_3)
    params = system.param_values()
    mass, _, constant = mass_and_force(dual_spencer(system.phi))
    assert not constant and not mass[1][0].is_zero and not mass[0][1].is_zero
    traj = integrate(_ode(system), *system.init, system.time[:2], system.time[2], method)
    assert not traj.truncated
    m00, m10 = (
        np.broadcast_to(compile_expr(e, params)(traj.taus, traj.xs.T, traj.vs.T),
                        traj.taus.shape)
        for e in (mass[0][0], mass[1][0])
    )
    row1 = np.abs(m10) > np.abs(m00)
    assert row1[0] and not row1[-1]  # the pivot row swaps, then stops swapping


def test_negative_zero_literals_reach_the_kernel_as_zero():
    system = parse_system(SIGNED_ZERO)
    values = [*system.init[0], *system.init[1], system.time[0]]
    assert values == [0.0] * 5
    assert all(math.copysign(1.0, value) == 1.0 for value in values)


def _unit_mass_mismatches(ode, ref):
    """The positions, over signed zeros, infinities and NaN, at which the
    unit-mass law and the reference differ in any bit that repr shows."""
    values = (0.0, -0.0, 1.0, math.inf, -math.inf, math.nan)
    return [
        x for x in itertools.product(values, repeat=2)
        if [repr(a) for a in ode.rhs(0.0, list(x), [0.0, 0.0])]
        != [repr(a) for a in ref(0.0, list(x), [0.0, 0.0])]
    ]


def test_unit_mass_keeps_every_term_of_the_inverse():
    # 0.0 + turns a -0.0 sum into 0.0; 0.0 * inf makes the other row NaN
    system = parse_system(UNIT_MASS_2)
    ode, ref = _ode(system), _reference_rhs(system)
    assert "(0.0 + r_0 + 0.0 * r_1)" in ode.law
    assert _unit_mass_mismatches(ode, ref) == []


def test_unit_mass_law_leaves_out_only_the_unit_factors():
    assert _ode(parse_system(UNIT_MASS_2)).law == (
        "r_0 = -x{s}_0\n"
        "r_1 = -x{s}_1\n"
        "a{s}_0 = (0.0 + r_0 + 0.0 * r_1)\n"
        "a{s}_1 = (0.0 + 0.0 * r_0 + r_1)"
    )
    # no RKF45 coefficient is 1.0, so its emitted stages keep every factor
    assert all(c != 1.0 for row in (*_RKF_A, _RKF_B4, _RKF_ERR) for c in row)


def test_unit_mass_law_without_its_zero_terms_differs(monkeypatch):
    # a _dot that also dropped the 0.0 * terms would lose the NaN of 0.0 * inf
    def mutant(coeffs, names):
        terms = [
            names.format(r) if c == 1.0 else f"{c!r} * {names.format(r)}"
            for r, c in enumerate(coeffs) if c != 0.0
        ]
        return "(0.0" + "".join(f" + {term}" for term in terms) + ")"

    monkeypatch.setattr(dynamics, "_dot", mutant)
    system = parse_system(UNIT_MASS_2)
    ode, ref = _ode(system), _reference_rhs(system)
    assert "(0.0 + r_0)" in ode.law
    assert (math.inf, 0.0) in _unit_mass_mismatches(ode, ref)


def _hand_trajectory(rows):
    """A two-coordinate trajectory of ``rows`` samples whose states mix
    ordinary values with signed zeros, subnormals, extremes, infinities and
    NaN."""
    rng = np.random.default_rng(rows)
    specials = np.array([0.0, -0.0, 5e-324, -1e308, math.inf, -math.inf, math.nan])
    xs, vs = rng.normal(size=(2, rows, 2)) * 10.0 ** rng.integers(-20, 20, size=(2, rows, 2))
    for values in (xs, vs):
        mask = rng.random(values.shape) < 0.1
        values[mask] = rng.choice(specials, size=mask.sum())
    return Trajectory(np.arange(rows) * 0.125 - 1.0, xs, vs, 0.125)


def _hand_report(rows):
    E, P, rho = np.random.default_rng(rows).normal(size=(3, rows))
    return BalanceReport(E, P, rho, 0.0, 0.0)


@pytest.mark.parametrize("audited", [False, True])
@pytest.mark.parametrize(
    "rows", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1]
)
def test_csv_block_edges(rows, audited, tmp_path):
    traj = _hand_trajectory(rows)
    report = _hand_report(rows) if audited else None
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_trajectory_csv(traj, new, report)
    reference_csv(traj, ref, report)
    assert new.read_bytes() == ref.read_bytes()
    assert len(new.read_bytes().splitlines()) == rows + 1


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_truncated_trajectory_csv(method, tmp_path):
    system = parse_system(BLOW_UP)
    traj = integrate(_ode(system), *system.init, system.time[:2], system.time[2], method)
    assert traj.truncated and len(traj.taus) > _CSV_BLOCK_ROWS
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_trajectory_csv(traj, new)
    reference_csv(traj, ref)
    assert new.read_bytes() == ref.read_bytes()


def _forked_and_serial_csv(cpus, tmp_path, traj, report=None):
    """The CSV bytes of ``traj`` written with two CPUs and with one, and
    the reference's."""
    paths = {}
    for count in (2, 1):
        cpus(count)
        paths[count] = tmp_path / f"cpus{count}.csv"
        write_trajectory_csv(traj, paths[count], report)
    reference_csv(traj, tmp_path / "ref.csv", report)
    return paths[2].read_bytes(), paths[1].read_bytes(), (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("audited", [False, True])
def test_csv_at_the_fork_cutoff(audited, offset, cpus, forks, tmp_path):
    # 5 columns, or 8 with the audit's: 8 blocks (the last short) or 5
    columns = 8 if audited else 5
    rows = -(-CSV_FORK_VALUES // columns) + offset
    traj = _hand_trajectory(rows)
    report = _hand_report(rows) if audited else None
    forked, serial, ref = _forked_and_serial_csv(cpus, tmp_path, traj, report)
    assert forked == serial == ref
    assert len(forks) == (rows * columns >= CSV_FORK_VALUES) == (offset >= 0)


@pytest.mark.parametrize("audited", [False, True])
@pytest.mark.parametrize(
    "rows",
    [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS,
     2 * _CSV_BLOCK_ROWS + 1, 3 * _CSV_BLOCK_ROWS, 3 * _CSV_BLOCK_ROWS + 7],
)
def test_forked_csv_block_edges(rows, audited, cpus, forks, monkeypatch, tmp_path):
    # every table forks: odd and even block counts, with and without a
    # short last block, and a child with no block to format
    monkeypatch.setattr(dynamics, "CSV_FORK_VALUES", 0)
    traj = _hand_trajectory(rows)
    report = _hand_report(rows) if audited else None
    forked, serial, ref = _forked_and_serial_csv(cpus, tmp_path, traj, report)
    assert forked == serial == ref
    assert len(forks) == 1


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_forked_truncated_trajectory_csv(method, cpus, forks, monkeypatch, tmp_path):
    monkeypatch.setattr(dynamics, "CSV_FORK_VALUES", 0)
    system = parse_system(BLOW_UP)
    traj = integrate(_ode(system), *system.init, system.time[:2], system.time[2], method)
    assert traj.truncated and len(traj.taus) > _CSV_BLOCK_ROWS
    forked, serial, ref = _forked_and_serial_csv(cpus, tmp_path, traj)
    assert forked == serial == ref
    assert len(forks) == 1
