"""Independent references for the outputs of every job.

Nothing here imports jetmech. Equations of motion are derived with sympy
from the generator's own `.mech` strings (R_i = F_i - d(Pi_i)/dt),
trajectories are integrated with scipy's DOP853 at tight tolerance, and
symbolic reports are re-parsed into sympy's exact polynomial ring over QQ
and checked by equality.

Each check returns ``(ok, error, detail)``: ``error`` is the largest
absolute deviation for trajectory checks and 0.0 for exact checks.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp

# Largest accepted |jetmech - reference| over x and v, per integrator. Both
# measured at most 6e-11 on every workload system (RK4 at h = 1e-3; RKF45
# at atol 1e-10 / rtol 1e-9, resampled by cubic Hermite interpolation).
TRAJECTORY_TOL = {"rk4": 1e-8, "rkf45": 1e-7}

_SIG = re.compile(r"\b(d?sig)\((\w+)\)")
_NAME = re.compile(r"\b[A-Za-z_]\w*'*")
_INT = re.compile(r"(?<![\w.^])\d+")


def evaluate(text: str, names: dict, signal, const):
    """Evaluate a `.mech` expression in another algebra.

    ``names`` binds identifiers (with primes, e.g. "x'"), ``signal(name,
    order)`` gives the order-th derivative of a signal, and ``const`` wraps
    integer literals so that "5/3" divides exactly. The text is either the
    generator's own or a report jetmech wrote; only the bound names, the
    literal wrapper and arithmetic operators are reachable from it.
    """
    ns = {"_c": const}
    keys = {}

    def signal_ref(match):
        # an inner reference was already replaced: dsig(dsig(w)) is w''
        head, inner = match.groups()
        base, order = keys.get(inner, (inner, 0))
        order += head == "dsig"
        key = f"_s{len(keys)}"
        keys[key] = (base, order)
        ns[key] = signal(base, order)
        return key

    prev = None
    while prev != text:
        prev, text = text, _SIG.sub(signal_ref, text)

    def bind(match):
        ident = match.group(0)
        if ident in ns:
            return ident
        key = f"_n{len(ns)}"
        ns[key] = names[ident]
        return key

    text = _NAME.sub(bind, text)
    text = _INT.sub(lambda m: f"_c({m.group(0)})", text).replace("^", "**")
    return eval(text, {"__builtins__": {}}, ns)  # noqa: S307 - see docstring


def _coordinate_names(coords, x, v, a) -> dict:
    names = {}
    for i, c in enumerate(coords):
        names[c], names[c + "'"], names[c + "''"] = x[i], v[i], a[i]
    return names


class SympyForm:
    """A system's one-form in sympy, parameters and signals bound to values.

    Used for trajectories, where sinusoid signals need sin().
    """

    def __init__(self, system):
        self.system = system
        self.t = sp.Symbol("t")
        self.x = [sp.Symbol(f"x_{c}") for c in system.coords]
        self.v = [sp.Symbol(f"v_{c}") for c in system.coords]
        self.a = [sp.Symbol(f"a_{c}") for c in system.coords]
        self.names = _coordinate_names(system.coords, self.x, self.v, self.a)
        self.names["t"] = self.t
        self.names.update({p: sp.Rational(Fraction(val)) for p, val in system.params.items()})
        self.signals = {}
        for name, (kind, args) in system.signals.items():
            c = [sp.Rational(Fraction(arg)) for arg in args]
            if kind == "polynomial":
                self.signals[name] = sum(ck * self.t**k for k, ck in enumerate(c))
            else:
                self.signals[name] = c[0] * sp.sin(c[1] * self.t + c[2])

    def parse(self, text: str):
        return evaluate(text, self.names,
                        lambda name, order: sp.diff(self.signals[name], self.t, order),
                        sp.Integer)

    def residuals(self) -> list:
        """R_i = F_i - d(Pi_i)/dt, derived here from the generator's strings."""
        out = []
        for f, pi in zip(self.system.force, self.system.momentum):
            P = self.parse(pi)
            dP = sp.diff(P, self.t)
            for x, v, a in zip(self.x, self.v, self.a):
                dP += sp.diff(P, x) * v + sp.diff(P, v) * a
            out.append(sp.expand(self.parse(f) - dP))
        return out


class PolynomialForm:
    """A system's one-form as exact polynomials over QQ (sympy's sparse
    ring), parameters kept as variables and polynomial signals expanded in
    t. Used to check symbolic reports exactly."""

    def __init__(self, system):
        self.system = system
        coords = system.coords
        gens = (["t"] + [f"p_{p}" for p in system.params]
                + [f"{k}_{c}" for k in ("x", "v", "a") for c in coords])
        self.ring, *g = sp.ring(",".join(gens), sp.QQ)
        n, k = len(coords), len(system.params)
        self.t = g[0]
        self.x, self.v, self.a = g[1 + k:1 + k + n], g[1 + k + n:1 + k + 2 * n], g[1 + k + 2 * n:]
        self.names = _coordinate_names(coords, self.x, self.v, self.a)
        self.names["t"] = self.t
        self.names.update(zip(system.params, g[1:1 + k]))
        self.signals = {}
        for name, (kind, args) in system.signals.items():
            if kind != "polynomial":
                raise ValueError(f"signal {name} is not polynomial")
            self.signals[name] = sum((sp.QQ(Fraction(c).numerator, Fraction(c).denominator)
                                      * self.t**i for i, c in enumerate(args)), self.ring.zero)
        self.F = [self.parse(f) for f in system.force]
        self.Pi = [self.parse(p) for p in system.momentum]

    def signal(self, name, order):
        out = self.signals[name]
        for _ in range(order):
            out = out.diff(self.t)
        return out

    def parse(self, text: str):
        return evaluate(text, self.names, self.signal, self.ring)

    def residuals(self) -> list:
        """R_i = F_i - d(Pi_i)/dt."""
        out = []
        for F, P in zip(self.F, self.Pi):
            dP = P.diff(self.t)
            for x, v, a in zip(self.x, self.v, self.a):
                dP += P.diff(x) * v + P.diff(v) * a
            out.append(F - dP)
        return out


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def reference_grid(system) -> np.ndarray:
    a, b, h = (float(c) for c in system.time)
    n_steps = max(1, int(round((b - a) / h)))
    return np.linspace(a, b, n_steps + 1)


def reference_trajectory(system) -> np.ndarray:
    """(N, 2n) array of x and v on the system's uniform grid, from DOP853."""
    form = SympyForm(system)
    n = len(system.coords)
    R = form.residuals()
    zero_acc = {a: 0 for a in form.a}
    mass = sp.Matrix(n, n, lambda i, j: -sp.diff(R[i], form.a[j]))
    force = sp.Matrix([R[i].subs(zero_acc) for i in range(n)])
    args = [form.t] + form.x + form.v
    mass_fn = sp.lambdify(args, mass, "numpy")
    force_fn = sp.lambdify(args, force, "numpy")

    def rhs(t, y):
        M = np.array(mass_fn(t, *y), dtype=float)
        c = np.array(force_fn(t, *y), dtype=float).reshape(n)
        return np.concatenate([y[n:], np.linalg.solve(M, c)])

    taus = reference_grid(system)
    x0, v0 = system.init
    y0 = [float(c) for c in x0] + [float(c) for c in v0]
    sol = solve_ivp(rhs, (taus[0], taus[-1]), y0, method="DOP853",
                    t_eval=taus, rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed for {system.name}: {sol.message}")
    return sol.y.T


def check_trajectory(csv_path, system, method, reference) -> tuple:
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    n = len(system.coords)
    want = ["tau"] + [f"x{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
    if header[: 2 * n + 1] != want:
        return False, float("inf"), f"unexpected CSV header {header}"
    if data.shape[0] != reference.shape[0]:
        return False, float("inf"), f"{data.shape[0]} rows, expected {reference.shape[0]}"
    if np.abs(data[:, 0] - reference_grid(system)).max() > 1e-12:
        return False, float("inf"), "tau column differs from the uniform grid"
    err = float(np.abs(data[:, 1 : 2 * n + 1] - reference).max())
    ok = err <= TRAJECTORY_TOL[method]
    return ok, err, f"max |err| {err:.3e} vs tol {TRAJECTORY_TOL[method]:.0e}"


# ---------------------------------------------------------------------------
# symbolic reports
# ---------------------------------------------------------------------------


def check_symbolic(json_path, form: PolynomialForm, command) -> tuple:
    """derive: residuals equal +-R_i. decompose: additionally L and phi_a
    rebuild phi (F_i = dL/dx_i + Fa_i, Pi_i = dL/dv_i + Pia_i)."""
    with open(json_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    R = form.residuals()
    got = report.get("residuals") or []
    if len(got) != len(R):
        return False, 0.0, f"{len(got)} residuals, expected {len(R)}"
    for i, (text, want) in enumerate(zip(got, R)):
        if form.parse(text) not in (want, -want):
            return False, 0.0, f"residual {i} differs from F - d(Pi)/dt"
    if command == "derive":
        return True, 0.0, "residuals match"
    L = form.parse(report["lagrangian"])
    anti = report["anti_exact"]
    for i, (F, Pi) in enumerate(zip(form.F, form.Pi)):
        if L.diff(form.x[i]) + form.parse(anti["F"][i]) != F:
            return False, 0.0, f"dx component {i} not rebuilt by L and phi_a"
        if L.diff(form.v[i]) + form.parse(anti["Pi"][i]) != Pi:
            return False, 0.0, f"dx' component {i} not rebuilt by L and phi_a"
    return True, 0.0, "residuals match; L and phi_a rebuild phi"


# ---------------------------------------------------------------------------
# verify reports
# ---------------------------------------------------------------------------


def check_verify_report(json_path, expected_checks) -> tuple:
    with open(json_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    names = [c["name"] for c in report["checks"]]
    if sorted(names) != sorted(expected_checks):
        return False, 0.0, f"checks {names}, expected {list(expected_checks)}"
    failed = [c["name"] for c in report["checks"] if c["pass"] is not True]
    if failed:
        return False, 0.0, f"FAIL: {', '.join(failed)}"
    return True, 0.0, f"{len(names)} checks PASS"
