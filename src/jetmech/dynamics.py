"""Numerical layer: integration, oracle comparison, energy audit, variations.

Turns symbolic equations of motion into explicit ODE systems through the
mass-matrix solve, integrates them with fixed-step RK4 or adaptive RKF45
(resampled onto a uniform grid), and provides the verification
instruments: comparison against a directly-declared Newtonian law, the
energy balance ledger, and first-variation / transversality quadrature
along trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import AuditUnsupportedError, MechError, SingularMassError
from .formcalc import Decomposition, VerticalOneForm
from .spencer import EquationsOfMotion, as_samples, diff_order2, dual_spencer
from .symexpr import (
    TAU,
    Expr,
    Symbol,
    SymbolKind,
    ZERO,
    acc,
    compile_expr,
    coord,
    expr_source,
    partial,
    substitute,
    vel,
)

# A mass-matrix pivot below this magnitude is singular.
PIVOT_THRESHOLD = 1e-12

# RKF45 accepts a step whose error estimate is within RKF45_ATOL +
# RKF45_RTOL * max(|x|, |v|, 1); knots are at most RKF45_MAX_STEP apart, so
# the cubic Hermite resampling error stays at the tolerance level.
RKF45_ATOL = 1e-10
RKF45_RTOL = 1e-9
RKF45_MAX_STEP = 0.02

# ---------------------------------------------------------------------------
# the mass solve: Gaussian elimination emitted as straight-line source
# ---------------------------------------------------------------------------


def _singular_mass(pivot, state):
    """Raise the SingularMassError for a pivot below PIVOT_THRESHOLD.

    ``state`` is the (t, x, v) at which a state-dependent matrix was
    evaluated, named in plain floats; None stands for a constant matrix.
    """
    where = "constant mass matrix"
    if state is not None:
        t, x, v = state
        where = f"t={float(t)!r}, x={[float(c) for c in x]!r}, v={[float(c) for c in v]!r}"
    raise SingularMassError(f"mass matrix singular (pivot {pivot:.3e} below threshold) at {where}")


def _elimination(n: int, state: str) -> list:
    """Law source solving ``m_r_c * a{s}_c = r_r`` (r, c < n) for ``a{s}_r``.

    Gaussian elimination with partial pivoting, unrolled for this ``n``. It
    does the float operations of the textbook loop in their order: the pivot
    is the first row of largest magnitude (strict ``>`` in row order, which
    is max()'s first-maximum rule, NaN included), the rows swap over columns
    ``>= col``, a zero factor skips its row, and back-substitution subtracts
    left to right. Column ``col`` of the rows below is never written, as
    nothing reads it again. ``state`` is the source of the state argument of
    ``_singular_mass``.
    """
    lines = []
    for col in range(n):
        below = range(col + 1, n)
        lines.append(f"big = abs(m_{col}_{col})")
        if below:
            lines.append(f"p = {col}")
        for r in below:
            lines += [f"mag = abs(m_{r}_{col})", f"if mag > big: big = mag; p = {r}"]
        for r in below:
            top = ", ".join([f"m_{col}_{c}" for c in range(col, n)] + [f"r_{col}"])
            low = ", ".join([f"m_{r}_{c}" for c in range(col, n)] + [f"r_{r}"])
            branch = "if" if r == col + 1 else "elif"
            lines.append(f"{branch} p == {r}: {top}, {low} = {low}, {top}")
        lines.append(f"if big < {PIVOT_THRESHOLD!r}: _singular_mass(m_{col}_{col}, {state})")
        if below:
            lines.append(f"inv = 1.0 / m_{col}_{col}")
        for r in below:
            update = [f"m_{r}_{c} -= f * m_{col}_{c}" for c in range(col + 1, n)]
            update.append(f"r_{r} -= f * r_{col}")
            lines += [f"f = m_{r}_{col} * inv", f"if f != 0.0: {'; '.join(update)}"]
    for r in reversed(range(n)):
        terms = "".join(f" - m_{r}_{c} * a{{s}}_{c}" for c in range(r + 1, n))
        lines.append(f"a{{s}}_{r} = (r_{r}{terms}) / m_{r}_{r}")
    return lines


@cache
def _solver(n: int):
    """``solve(M, b) -> list``: the emitted elimination compiled as a
    function of an n x n list ``M`` and a right side ``b``; a vanishing pivot
    is reported for a constant matrix. Compiled once per ``n``."""
    body = [f"m_{r}_{c} = M[{r}][{c}]" for r in range(n) for c in range(n)]
    body += [f"r_{r} = b[{r}]" for r in range(n)]
    body += _elimination(n, "None")
    body.append("return [" + ", ".join(f"a{{s}}_{r}" for r in range(n)) + "]")
    namespace = {"_singular_mass": _singular_mass}
    source = "def solve(M, b):\n" + "".join(f"    {line}\n" for line in body).format(s="")
    exec(source, namespace)  # noqa: S102 - generated locally
    return namespace["solve"]


# ---------------------------------------------------------------------------
# the generated kernel: one explicit law inlined into every loop
# ---------------------------------------------------------------------------


def _dot(coeffs, names: str) -> str:
    """Source of ``sum(c * k for c, k in ...)`` as builtin sum() computes it
    (left to right from the int 0), with every term kept: a zero
    coefficient still turns an infinite ``k`` into NaN."""
    if not coeffs:
        return "0"
    return "(0.0" + "".join(f" + {c!r} * {names.format(r)}" for r, c in enumerate(coeffs)) + ")"


# Function templates. A line holding {i} repeats once per coordinate; a line
# @law(S) becomes the system's law at stage suffix S.
_SAMPLE = """\
def kernel(taus, xs, vs):
    out = []
    for t, x, v in zip(taus, xs, vs):
        x_{i} = x[{i}]
        v_{i} = v[{i}]
        @law()
        out.append(a_{i})
    return out
"""

# The integration loops catch OverflowError/ValueError from the law (float
# range exceeded: blow-up) and truncate, as they do for a non-finite state.
_RK4 = """\
def kernel(taus, x, v, h):
    x1_{i} = x[{i}]
    v1_{i} = v[{i}]
    h2 = h / 2.0
    h6 = h / 6.0
    xs = list(x)
    vs = list(v)
    for t1 in taus:
        try:
            @law(1)
            t2 = t1 + h2
            x2_{i} = x1_{i} + h2 * v1_{i}
            v2_{i} = v1_{i} + h2 * a1_{i}
            @law(2)
            t3 = t1 + h2
            x3_{i} = x1_{i} + h2 * v2_{i}
            v3_{i} = v1_{i} + h2 * a2_{i}
            @law(3)
            t4 = t1 + h
            x4_{i} = x1_{i} + h * v3_{i}
            v4_{i} = v1_{i} + h * a3_{i}
            @law(4)
        except (OverflowError, ValueError):
            return xs, vs, True
        x1_{i} = x1_{i} + h6 * (v1_{i} + 2.0 * v2_{i} + 2.0 * v3_{i} + v4_{i})
        v1_{i} = v1_{i} + h6 * (a1_{i} + 2.0 * a2_{i} + 2.0 * a3_{i} + a4_{i})
        if not ({finite}):
            return xs, vs, True
        xs.append(x1_{i})
        vs.append(v1_{i})
    return xs, vs, False
"""

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

# Stage s evaluates the law at (tk{s}, xk{s}_i, vk{s}_i); vk{s}_i and ak{s}_i
# are the stage's slopes of x and v. Stage 0 is at the knot itself, whose law
# value a_i is already known: t + 0.0 * dt and x_i + dt * 0 are t and x_i
# bitwise unless one is -0.0. None is: parsed times and states start from
# float() of an exact literal, and x + dt * (0.0 + ...) is never -0.0 when x
# is not.
_RKF45_STAGE0 = """\
            vk0_{i} = v_{i}
            ak0_{i} = a_{i}
"""
_RKF45_STAGE = """\
            tk{s} = t + {c!r} * dt
            xk{s}_{{i}} = x_{{i}} + dt * {a_vk}
            vk{s}_{{i}} = v_{{i}} + dt * {a_ak}
            @law(k{s})
"""

_RKF45 = """\
def kernel(x, v, a_t, b_t, atol, rtol, max_step):
    x_{i} = x[{i}]
    v_{i} = v[{i}]
    t = a_t
    ts = [t]
    xs = list(x)
    vs = list(v)
    accels = []
    try:
        @law()
    except (OverflowError, ValueError):
        return ts, xs, vs, accels, True
    accels.append(a_{i})
    dt = min(max_step, (b_t - a_t) / 10.0)
    min_step = 1e-14 * (b_t - a_t)
    t_stop = b_t - 1e-15 * (b_t - a_t)
    while t < t_stop:
        dt = min(dt, b_t - t)
        try:
{stages}
            err = 0.0
            scale = atol + rtol * max({abs_x}, {abs_v}, 1.0)
            err = max(err, abs(dt * {err_vk}), abs(dt * {err_ak}))
        except (OverflowError, ValueError):
            return ts, xs, vs, accels, True
        if not isfinite(err):
            return ts, xs, vs, accels, True
        if err <= scale:
            x_{i} = x_{i} + dt * {b4_vk}
            v_{i} = v_{i} + dt * {b4_ak}
            t = t + dt
            if not ({finite}):
                return ts, xs, vs, accels, True
            try:
                @law()
            except (OverflowError, ValueError):
                return ts, xs, vs, accels, True
            ts.append(t)
            xs.append(x_{i})
            vs.append(v_{i})
            accels.append(a_{i})
        ratio = (scale / err) ** 0.2 if err > 0.0 else 5.0
        dt = min(max_step, dt * min(5.0, max(0.2, 0.9 * ratio)))
        if dt < min_step:
            return ts, xs, vs, accels, True
    return ts, xs, vs, accels, False
"""


class _Kernel:
    """One system's explicit law a = M^-1 c as generated source.

    ``law`` is emitted once. It reads ``t{s}``, ``x{s}_i``, ``v{s}_i`` and
    assigns ``a{s}_i``, where ``{s}`` is a stage suffix, so each loop
    inlines it per stage instead of calling a function; a state-dependent
    mass is solved by the straight-line elimination inside the law, whose
    work locals (``m_r_c``, ``r_r``) are shared by the stages. The three
    functions built from it are compiled on first use and run on Python
    floats and ``math`` only, doing the same float operations in the same
    order as a per-coordinate loop around a law callable would; RKF45's
    first stage takes the knot's law value instead of evaluating the law
    again at the same point.
    """

    def __init__(self, n: int, law: str):
        self.n = n
        self.law = law

    def rhs(self, t, x, v) -> list:
        """The accelerations at one state, as a list: ``sample`` on one row."""
        return self.sample((t,), (x,), (v,))

    def _join(self, item: str, sep: str) -> str:
        return sep.join(item.format(i=i) for i in range(self.n))

    def _compile(self, template: str, **fields):
        lines = []
        for line in template.format(i="{i}", **fields).splitlines():
            body = line.lstrip()
            if body.startswith("@law("):
                indent = line[: len(line) - len(body)]
                lines += [indent + stmt for stmt in self.law.format(s=body[5:-1]).splitlines()]
            elif "{i}" in line:
                lines += [line.format(i=i) for i in range(self.n)]
            else:
                lines.append(line)
        namespace = {
            "sin": math.sin, "cos": math.cos, "isfinite": math.isfinite,
            "_singular_mass": _singular_mass,
        }
        exec("\n".join(lines) + "\n", namespace)  # noqa: S102 - generated locally
        return namespace["kernel"]

    @cached_property
    def sample(self):
        """``sample(taus, xs, vs) -> accels``: the law at each (t, x, v)
        row, as one flat row-major list."""
        return self._compile(_SAMPLE)

    @cached_property
    def rk4(self):
        """``rk4(taus, x0, v0, h) -> (xs, vs, truncated)``: one RK4 step from
        each time in ``taus``. ``xs``/``vs`` are flat row-major lists of the
        accepted states, starting with (x0, v0)."""
        return self._compile(
            _RK4, finite=self._join("isfinite(x1_{i}) and isfinite(v1_{i})", " and ")
        )

    @cached_property
    def rkf45(self):
        """``rkf45(x0, v0, a_t, b_t, atol, rtol, max_step)`` returns
        ``(ts, xs, vs, accels, truncated)``: the accepted knots and their
        states and accelerations as flat row-major lists. ``accels`` is
        empty when the law fails at the initial state."""
        stages = _RKF45_STAGE0 + "".join(
            _RKF45_STAGE.format(
                s=s, c=_RKF_C[s], a_vk=_dot(_RKF_A[s], "vk{}_{{i}}"),
                a_ak=_dot(_RKF_A[s], "ak{}_{{i}}"),
            )
            for s in range(1, 6)
        )
        abs_x, abs_v = self._join("abs(x_{i})", ", "), self._join("abs(v_{i})", ", ")
        if self.n > 1:
            abs_x, abs_v = f"max({abs_x})", f"max({abs_v})"
        return self._compile(
            _RKF45,
            stages=stages.rstrip("\n"),
            abs_x=abs_x,
            abs_v=abs_v,
            err_vk=_dot(_RKF_ERR, "vk{}_{{i}}"),
            err_ak=_dot(_RKF_ERR, "ak{}_{{i}}"),
            b4_vk=_dot(_RKF_B4, "vk{}_{{i}}"),
            b4_ak=_dot(_RKF_B4, "ak{}_{{i}}"),
            finite=self._join("isfinite(x_{i}) and isfinite(v_{i})", " and "),
        )


# ---------------------------------------------------------------------------
# explicit ODE assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitODE:
    """First-order system x' = v, v' = a(t, x, v) from affine residuals.

    ``kernel`` holds the generated law and the loops built from it; the
    integrators run those loops and never call ``rhs``, which evaluates the
    law at one state and returns a list.
    """

    n: int
    rhs: Callable[[float, Sequence[float], Sequence[float]], list]
    kernel: _Kernel = field(repr=False, compare=False)


def mass_and_force(eom: EquationsOfMotion) -> tuple[tuple, tuple, bool]:
    """Split affine residuals R = c - M a into (M, c) symbolically.

    Returns (M, c, constant): M is an n x n tuple of Expr with
    M_ij = -dR_i/da^j, c_i is R_i with the accelerations zeroed, and
    ``constant`` says that every entry of M involves parameters only.
    """
    n = eom.n
    zero_acc = {acc(j): ZERO for j in range(n)}
    mass = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = -partial(eom.residuals[i], acc(j))
            if entry.contains_kind(SymbolKind.ACC):
                raise MechError("residuals are not affine in the accelerations")
            row.append(entry)
        mass.append(tuple(row))
    force = tuple(substitute(eom.residuals[i], zero_acc) for i in range(n))
    constant = all(s.kind == SymbolKind.PARAM for row in mass for e in row for s in e.symbols())
    return tuple(mass), force, constant


def assemble_explicit(eom: EquationsOfMotion, params: Mapping[str, float]) -> ExplicitODE:
    """Solve M a = c pointwise for the accelerations.

    (M, c) come from ``mass_and_force``. The solve is Gaussian elimination
    with partial pivoting, emitted as straight-line source for this n
    (``_elimination``); it reports the offending state when a pivot falls
    below PIVOT_THRESHOLD. A constant mass matrix is inverted once by the
    same elimination, a state-dependent one is solved inline at every law
    evaluation. The resulting law is emitted as source for the system's
    generated kernel.
    """
    n = eom.n
    mass_sym, force_sym, constant = mass_and_force(eom)

    def source(e: Expr) -> str:
        return expr_source(e, params, t="t{s}", x="x{{s}}_{}", v="v{{s}}_{}")

    forces = [source(force_sym[i]) for i in range(n)]
    law = [f"r_{i} = {forces[i]}" for i in range(n)]
    if constant:
        M0 = [
            [compile_expr(mass_sym[i][j], params)(0.0, (), ()) for j in range(n)]
            for i in range(n)
        ]
        # the columns of M0^-1, solved against the unit vectors
        solve = _solver(n)
        cols = [solve(M0, [float(r == j) for r in range(n)]) for j in range(n)]
        inverse = [[cols[j][i] for j in range(n)] for i in range(n)]
        if n == 1:
            law = [f"a{{s}}_0 = ({forces[0]})*{inverse[0][0]!r}"]
        else:
            law += [f"a{{s}}_{i} = {_dot(inverse[i], 'r_{}')}" for i in range(n)]
    else:
        law += [f"m_{i}_{j} = {source(mass_sym[i][j])}" for i in range(n) for j in range(n)]
        xs, vs = ("".join(f"{kind}{{s}}_{i}, " for i in range(n)) for kind in "xv")
        law += _elimination(n, f"(t{{s}}, ({xs}), ({vs}))")
    kernel = _Kernel(n, "\n".join(law))
    return ExplicitODE(n=n, rhs=kernel.rhs, kernel=kernel)


# ---------------------------------------------------------------------------
# trajectories and integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled jet-space section (t_k, x_k, v_k) on a uniform grid.

    ``xs`` and ``vs`` follow the ``as_samples`` layout, (N, n); a grid that
    is not uniform and increasing, or whose step is not ``h``, raises
    ValueError. ``law`` is the ExplicitODE that ``integrate`` ran to make
    it; it is None on a trajectory built by hand.
    """

    taus: np.ndarray
    xs: np.ndarray  # (N, n)
    vs: np.ndarray  # (N, n)
    h: float
    truncated: bool = False
    law: ExplicitODE | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        xs = as_samples(self.xs, len(taus))
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", as_samples(self.vs, len(taus), xs.shape[1]))
        if len(taus) >= 2:
            # a step may differ from the mean by the rounding of the times
            # themselves, as np.linspace leaves it far from t = 0
            step = (taus[-1] - taus[0]) / (len(taus) - 1)
            slack = 1e-12 + 4 * np.finfo(float).eps * max(abs(taus[0]), abs(taus[-1]))
            if not step > 0 or not np.allclose(np.diff(taus), step, rtol=1e-9, atol=slack):
                raise ValueError("section grid must be uniform and increasing")
            if not np.isclose(self.h, step, rtol=1e-9, atol=slack):
                raise ValueError(f"step h = {self.h!r} disagrees with the grid step {step!r}")

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    @cached_property
    def accels(self) -> np.ndarray:
        """The (N, n) accelerations of the trajectory's own law at each
        sample, computed on first use."""
        if self.law is None:
            raise MechError("a trajectory built without a law has no accelerations")
        return accelerations_on(self, self.law)


def _hermite_resample(taus, knot_ts, kx, kv, ka, n, span):
    """Cubic Hermite values at every grid time up to the last knot.

    Each value takes the same float operations as evaluating the Hermite
    basis per sample with Python floats; ``np.float_power`` keeps the square
    a call to pow(), as Python's ``**`` is.
    """
    knot_ts = np.array(knot_ts)
    beyond = np.flatnonzero(taus > knot_ts[-1] + 1e-12 * span)
    t = taus[: beyond[0] if len(beyond) else len(taus)]
    kx = np.array(kx).reshape(-1, n)
    kv = np.array(kv).reshape(-1, n)
    if len(knot_ts) == 1:
        return np.repeat(kx, len(t), axis=0), np.repeat(kv, len(t), axis=0)
    ka = np.array(ka).reshape(-1, n)
    j = np.clip(np.searchsorted(knot_ts, t, side="right") - 1, 0, len(knot_ts) - 2)
    t0 = knot_ts[j]
    dt = knot_ts[j + 1] - t0
    w = np.divide(t - t0, dt, out=np.zeros_like(t), where=dt != 0)[:, None]
    dt = dt[:, None]
    square = np.float_power(1 - w, 2)
    h00 = (1 + 2 * w) * square
    h10 = w * square
    h01 = w * w * (3 - 2 * w)
    h11 = w * w * (w - 1)
    xs = h00 * kx[j] + h10 * dt * kv[j] + h01 * kx[j + 1] + h11 * dt * kv[j + 1]
    vs = h00 * kv[j] + h10 * dt * ka[j] + h01 * kv[j + 1] + h11 * dt * ka[j + 1]
    return xs, vs


def integrate(
    ode: ExplicitODE,
    x0: Sequence[float],
    v0: Sequence[float],
    interval: tuple[float, float],
    h: float,
    method: str = "rk4",
) -> Trajectory:
    """Integrate to a uniform grid of step ~h over [a, b].

    rk4 is the fixed-step workhorse (global order 4). rkf45 runs adaptively
    under the RKF45_* tolerances and is resampled onto the uniform grid by
    cubic Hermite interpolation. Non-finite states, and float overflow
    inside the law, truncate the trajectory and set the flag instead of
    raising.
    """
    a_t, b_t = float(interval[0]), float(interval[1])
    if not b_t > a_t:
        raise ValueError("time interval must satisfy b > a")
    if not h > 0:
        raise ValueError("step must be positive")
    N = max(1, int(round((b_t - a_t) / h)))
    taus = np.linspace(a_t, b_t, N + 1)
    h_eff = (b_t - a_t) / N
    n = ode.n
    x0 = [float(c) for c in x0]
    v0 = [float(c) for c in v0]
    if len(x0) != n or len(v0) != n:
        raise ValueError("initial condition dimension mismatch")

    if method == "rk4":
        xs, vs, truncated = ode.kernel.rk4(taus[:-1].tolist(), x0, v0, h_eff)
        m = len(xs) // n
        return Trajectory(
            taus[:m], np.array(xs).reshape(m, n), np.array(vs).reshape(m, n), h_eff, truncated, ode
        )
    if method != "rkf45":
        raise ValueError(f"unknown integrator '{method}'")

    knot_ts, kx, kv, ka, truncated = ode.kernel.rkf45(
        x0, v0, a_t, b_t, RKF45_ATOL, RKF45_RTOL, RKF45_MAX_STEP
    )
    xs, vs = _hermite_resample(taus, knot_ts, kx, kv, ka, n, b_t - a_t)
    m = len(xs)
    return Trajectory(taus[:m], xs, vs, h_eff, truncated or m < len(taus), ode)


# ---------------------------------------------------------------------------
# quadrature and differencing helpers
# ---------------------------------------------------------------------------


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid; 3/8 rule absorbs an odd tail."""
    y = np.asarray(y, dtype=float)
    n_int = len(y) - 1
    if n_int < 1:
        raise ValueError("quadrature needs at least two samples")
    if n_int == 1:
        return float(0.5 * h * (y[0] + y[1]))
    if n_int == 3:
        return float(3.0 * h / 8.0 * (y[0] + 3 * y[1] + 3 * y[2] + y[3]))
    if n_int % 2 == 0:
        body, tail = y, 0.0
    else:
        body = y[: n_int - 3 + 1]
        tail = 3.0 * h / 8.0 * (y[-4] + 3 * y[-3] + 3 * y[-2] + y[-1])
    s = body[0] + body[-1] + 4.0 * body[1:-1:2].sum() + 2.0 * body[2:-1:2].sum()
    return float(h / 3.0 * s + tail)


def _eval_on_trajectory(e: Expr, traj: Trajectory, params) -> np.ndarray:
    """``e`` at every sample; reads ``traj.accels`` only if ``e`` has accelerations."""
    fn = compile_expr(e, params, vectorized=True)
    a_rows = traj.accels.T if e.contains_kind(SymbolKind.ACC) else None
    out = fn(traj.taus, traj.xs.T, traj.vs.T, a_rows)
    return np.broadcast_to(np.asarray(out, dtype=float), traj.taus.shape).copy()


def accelerations_on(traj: Trajectory, ode: ExplicitODE) -> np.ndarray:
    """Accelerations recomputed from the explicit law at each sample."""
    accels = ode.kernel.sample(traj.taus.tolist(), traj.xs.tolist(), traj.vs.tolist())
    return np.array(accels, dtype=float).reshape(traj.xs.shape)


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    max_divergence: float


def newton_oracle_eom(oracle_forces: Sequence[Expr], n: int) -> EquationsOfMotion:
    """Hand-written second law m a_i = F_i as residuals, bypassing any
    momentum bookkeeping (requires a parameter named 'm')."""
    m = Expr.var(Symbol(SymbolKind.PARAM, name="m"))
    residuals = tuple(
        oracle_forces[i] - m * Expr.var(acc(i)) for i in range(n)
    )
    return EquationsOfMotion(residuals)


def oracle_compare(system, method: str = "rk4") -> OracleReport:
    """Integrate the derived equations and the declared Newtonian law on the
    system's time grid with identical integrator and steps; report the max
    state divergence.

    ``system`` is a parsed SystemSpec (duck-typed: phi, oracle_forces,
    param_values(), init, time fields are used).
    """
    if system.oracle_forces is None:
        raise MechError(f"system '{system.name}' declares no newton oracle")
    if "m" not in system.param_values():
        raise MechError("newton oracle requires a parameter named 'm'")
    if system.init is None:
        raise MechError("oracle comparison requires initial conditions")
    if system.time is None:
        raise MechError("oracle comparison requires a time clause")
    a, b, h = system.time
    params = system.param_values()
    x0, v0 = system.init
    derived_ode = assemble_explicit(dual_spencer(system.phi), params)
    oracle_ode = assemble_explicit(
        newton_oracle_eom(system.oracle_forces, system.n), params
    )
    derived = integrate(derived_ode, x0, v0, (a, b), h, method)
    oracle = integrate(oracle_ode, x0, v0, (a, b), h, method)
    m = min(len(derived.taus), len(oracle.taus))
    div = np.abs(derived.xs[:m] - oracle.xs[:m]).sum(axis=1) + np.abs(
        derived.vs[:m] - oracle.vs[:m]
    ).sum(axis=1)
    return OracleReport(float(div.max()))


# ---------------------------------------------------------------------------
# energy balance audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    """Sampled energy ledger: E, power input P, residual rho = dE/dt - P."""

    E: np.ndarray
    P: np.ndarray
    rho: np.ndarray
    max_residual: float
    rms_residual: float

    @property
    def relative_drift(self) -> float:
        base = max(abs(float(self.E[0])), 1e-300)
        return float(np.abs(self.E - self.E[0]).max() / base)


def energy_audit(traj: Trajectory, dec: Decomposition, params) -> BalanceReport:
    """Check dE/dt = P along a trajectory.

    E is the Legendre form v^i dL/dv^i - L of the exact part; P is the
    anti-exact force contracted with velocity, plus the explicit time
    derivative of L folded in. Splits whose anti-exact part carries dv
    components are outside the supported family and are refused.
    """
    n = traj.n
    if len(traj.taus) < 3:
        raise AuditUnsupportedError("energy audit needs at least 3 samples")
    if any(not e.is_zero for e in dec.anti_exact.Pi):
        raise AuditUnsupportedError(
            "energy audit requires an anti-exact part with zero dv components"
        )
    L = dec.lagrangian
    E_expr = ZERO
    for i in range(n):
        E_expr = E_expr + partial(L, vel(i)) * Expr.var(vel(i))
    E_expr = E_expr - L
    P_expr = -partial(L, TAU)
    for i in range(n):
        P_expr = P_expr + dec.anti_exact.F[i] * Expr.var(vel(i))
    E = _eval_on_trajectory(E_expr, traj, params)
    P = _eval_on_trajectory(P_expr, traj, params)
    rho = diff_order2(E, traj.h) - P
    return BalanceReport(
        E, P, rho, float(np.abs(rho).max()), float(np.sqrt(np.mean(rho**2)))
    )


# ---------------------------------------------------------------------------
# first variation and transversality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationField:
    """Variation delta-x along a trajectory: symbolic in t, or sampled.

    Symbolic components may contain time and signal symbols only; sampled
    fields carry their own derivative samples (differenced at second order
    when absent), both in the ``as_samples`` layout (N, n) of the grid they
    are used on. Endpoint flags assert fixed-boundary behaviour.
    """

    exprs: tuple[Expr, ...] | None = None
    samples: np.ndarray | None = None
    dot_samples: np.ndarray | None = None
    vanishes_at_a: bool = False
    vanishes_at_b: bool = False

    def __post_init__(self):
        if (self.exprs is None) == (self.samples is None):
            raise ValueError("provide exactly one of exprs or samples")
        if self.exprs is not None:
            for e in self.exprs:
                for s in e.symbols():
                    if s.kind not in (SymbolKind.TIME, SymbolKind.SIGNAL):
                        raise ValueError(
                            "symbolic variations may only involve time and signals"
                        )

    @classmethod
    def from_exprs(cls, *exprs: Expr, vanishes_at_a=False, vanishes_at_b=False):
        return cls(exprs=tuple(exprs), vanishes_at_a=vanishes_at_a, vanishes_at_b=vanishes_at_b)

    @classmethod
    def from_samples(cls, samples, dot_samples=None, vanishes_at_a=False, vanishes_at_b=False):
        return cls(
            samples=samples,
            dot_samples=dot_samples,
            vanishes_at_a=vanishes_at_a,
            vanishes_at_b=vanishes_at_b,
        )

    def sample_on(self, taus: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(delta, delta_dot) arrays of shape (N, n) on the given grid."""
        N = len(taus)
        if self.exprs is not None:
            cols = []
            dcols = []
            zeros = np.zeros_like(taus)
            dummy = (zeros,) * 8
            for e in self.exprs:
                fn = compile_expr(e, {}, vectorized=True)
                dfn = compile_expr(partial(e, TAU), {}, vectorized=True)
                cols.append(np.broadcast_to(np.asarray(fn(taus, dummy, dummy), float), taus.shape))
                dcols.append(np.broadcast_to(np.asarray(dfn(taus, dummy, dummy), float), taus.shape))
            delta = np.column_stack(cols)
            ddot = np.column_stack(dcols)
        else:
            delta = as_samples(self.samples, N)
            if self.dot_samples is not None:
                ddot = as_samples(self.dot_samples, N, delta.shape[1])
            else:
                ddot = diff_order2(delta, h)
        if self.vanishes_at_a and np.abs(delta[0]).max() > 1e-12:
            raise ValueError("variation flagged as vanishing at a does not")
        if self.vanishes_at_b and np.abs(delta[-1]).max() > 1e-12:
            raise ValueError("variation flagged as vanishing at b does not")
        return delta, ddot


def _boundary_pairing(traj: Trajectory, phi: VerticalOneForm, delta, params):
    """(Pi_i delta^i) at the first and the last sample, for (N, n) ``delta``."""
    ends = [0, -1]
    pairing = sum(
        _eval_on_trajectory(phi.Pi[i], traj, params)[ends] * delta[ends, i] for i in range(traj.n)
    )
    return float(pairing[0]), float(pairing[1])


def transversality_term(
    traj: Trajectory, phi: VerticalOneForm, variation: VariationField, params
) -> tuple[float, float]:
    """Boundary pairing (Pi_i delta-x^i) at the two interval endpoints."""
    delta, _ = variation.sample_on(traj.taus, traj.h)
    return _boundary_pairing(traj, phi, delta, params)


def first_variation(
    traj: Trajectory,
    phi: VerticalOneForm,
    variation: VariationField,
    params,
    form: str = "pre",
) -> float:
    """First-variation functional along a prolonged trajectory, by Simpson.

    form="pre" integrates F_i d^i + Pi_i d(d^i)/dt. form="post" integrates
    the integrated-by-parts density (F_i - d(Pi_i)/dt) d^i, with the
    accelerations of the trajectory's own law (``traj.accels``), and adds
    the transversality boundary term. The two forms agree to quadrature
    tolerance on any integrated trajectory.
    """
    delta, ddot = variation.sample_on(traj.taus, traj.h)
    if form == "pre":
        integrand = np.zeros_like(traj.taus)
        for i in range(traj.n):
            integrand += _eval_on_trajectory(phi.F[i], traj, params) * delta[:, i]
            integrand += _eval_on_trajectory(phi.Pi[i], traj, params) * ddot[:, i]
        return simpson_uniform(integrand, traj.h)
    if form != "post":
        raise ValueError("form must be 'pre' or 'post'")
    residuals = dual_spencer(phi).residuals
    integrand = np.zeros_like(traj.taus)
    for i in range(traj.n):
        integrand += _eval_on_trajectory(residuals[i], traj, params) * delta[:, i]
    total = simpson_uniform(integrand, traj.h)
    theta_a, theta_b = _boundary_pairing(traj, phi, delta, params)
    return total + (theta_b - theta_a)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path, report: BalanceReport | None = None):
    """One row per sample, 17 significant digits, deterministic."""
    n = traj.n
    header = ["tau"] + [f"x{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
    columns = [traj.taus[:, None], traj.xs, traj.vs]
    if report is not None:
        header += ["E", "P", "rho"]
        columns += [report.E[:, None], report.P[:, None], report.rho[:, None]]
    row = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [row % tuple(values) for values in np.hstack(columns).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
