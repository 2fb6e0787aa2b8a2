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
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import AuditUnsupportedError, MechError, SingularMassError, TruncationError
from .forking import child_stream
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
    compile_exprs,
    expr_source,
    param_literals,
    partial,
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
# Most steps, accepted or rejected, that one RKF45 integration attempts; a
# run that has not reached the end of its interval by then is truncated, as
# one whose step underflows is. An accepted knot keeps 1 + 3n floats, an RK4
# step 2n, so at half of dsl.MAX_TIME_STEPS the knots never outgrow the
# longest RK4 run; the benchmark jobs and the tests attempt at most ~30,000.
RKF45_MAX_ATTEMPTS = 500_000

# Most coordinates of a mass matrix the program solves. Its elimination is
# emitted as straight-line source that grows as n^3 (and, for a matrix that
# depends on the state, is inlined 12 times across the kernels);
# ``_elimination`` checks the bound before it emits any.
MAX_MASS_COORDINATES = 16

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
    ``_singular_mass``. Raises MechError for n beyond MAX_MASS_COORDINATES.
    """
    if n > MAX_MASS_COORDINATES:
        raise MechError(
            f"system too large: a mass matrix of {n} coordinates "
            f"exceeds MAX_MASS_COORDINATES = {MAX_MASS_COORDINATES}"
        )
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
    law = [f"m_{r}_{c} = M[{r}][{c}]" for r in range(n) for c in range(n)]
    law += [f"r_{r} = b[{r}]" for r in range(n)] + _elimination(n, "None")
    answer = ", ".join(f"a_{r}" for r in range(n))
    template = f"def kernel(M, b):\n    @law()\n    return [{answer}]\n"
    return _define(template, n, ("", "\n".join(law)))


# ---------------------------------------------------------------------------
# the generated kernel: one explicit law inlined into every loop
# ---------------------------------------------------------------------------


def _dot(coeffs, names: str) -> str:
    """Source of ``sum(c * k for c, k in ...)`` as builtin sum() computes it
    (left to right from the int 0), with every term kept: a zero
    coefficient still turns an infinite ``k`` into NaN. A coefficient of
    exactly 1.0 is left out, as multiplying by it is exact."""
    if not coeffs:
        return "0"
    terms = (
        names.format(r) if c == 1.0 else f"{c!r} * {names.format(r)}"
        for r, c in enumerate(coeffs)
    )
    return "(0.0" + "".join(f" + {term}" for term in terms) + ")"


# The names a generated function runs with: ``math``'s sin, cos and
# isfinite and the singular-mass report for the loops on Python floats; for
# the law on whole columns, numpy's float_power (pow() per element, as
# Python's ``**`` on floats) and ``math``'s sin and cos per element.
_FLOAT_NAMES = {
    "sin": math.sin, "cos": math.cos, "isfinite": math.isfinite,
    "_singular_mass": _singular_mass,
}


def _per_element(fn):
    return lambda column: np.fromiter(map(fn, column.tolist()), float, len(column))


_COLUMN_NAMES = {
    "sin": _per_element(math.sin), "cos": _per_element(math.cos),
    "float_power": np.float_power,
}


def _define(template: str, n: int, law: tuple[str, str], names: dict = _FLOAT_NAMES, **fields):
    """The function ``kernel`` that ``template`` defines, its ``fields``
    filled in. ``law`` is a ``(time, law)`` pair as ExplicitODE holds it. A
    line holding {i} repeats once per coordinate, for ``n`` of them; a line
    @law(S) becomes the time lines at stage S and then the law at stage S,
    and @law(S, U) the law alone at stage S, reading the time and time terms
    that an earlier @law(U) bound. A line that begins with @t is a stage
    time, kept only when the law reads time. The function runs in a
    namespace of ``names``."""
    time, law = law
    clock = "t{u}" in time + law  # the law reads its stage time
    lines = []
    for line in template.format(i="{i}", **fields).splitlines():
        body = line.lstrip()
        indent = line[: len(line) - len(body)]
        if body.startswith("@law("):
            s, _, u = body[5:-1].partition(", ")
            stmts = law.format(s=s, u=u or s).splitlines()
            if not u:
                stmts = time.format(u=s).splitlines() + stmts
            lines += [indent + stmt for stmt in stmts]
        elif body.startswith("@t "):
            if clock:
                lines.append(indent + body[3:])
        elif "{i}" in line:
            lines += [line.format(i=i) for i in range(n)]
        else:
            lines.append(line)
    namespace = dict(names)
    exec("\n".join(lines) + "\n", namespace)  # noqa: S102 - generated locally
    return namespace["kernel"]


# Function templates for _define.
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

# The law of a constant mass on whole columns: ``t`` the grid and ``x[i]``,
# ``v[i]`` coordinate i at every sample.
_SAMPLE_COLUMNS = """\
def kernel(t, x, v):
    x_{i} = x[{i}]
    v_{i} = v[{i}]
    @law()
    return [{answer}]
"""

# The integration loops catch OverflowError/ValueError from the law (float
# range exceeded: blow-up) and truncate, as they do for a non-finite state;
# a truncated run returns its reason (Trajectory.truncation), a whole one None.
# Stage 3's time, t1 + h2, is stage 2's bit for bit, so stage 3 reads stage
# 2's time and time terms.
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
            @t t2 = t1 + h2
            x2_{i} = x1_{i} + h2 * v1_{i}
            v2_{i} = v1_{i} + h2 * a1_{i}
            @law(2)
            x3_{i} = x1_{i} + h2 * v2_{i}
            v3_{i} = v1_{i} + h2 * a2_{i}
            @law(3, 2)
            @t t4 = t1 + h
            x4_{i} = x1_{i} + h * v3_{i}
            v4_{i} = v1_{i} + h * a3_{i}
            @law(4)
        except (OverflowError, ValueError):
            return xs, vs, "law overflow"
        x1_{i} = x1_{i} + h6 * (v1_{i} + 2.0 * v2_{i} + 2.0 * v3_{i} + v4_{i})
        v1_{i} = v1_{i} + h6 * (a1_{i} + 2.0 * a2_{i} + 2.0 * a3_{i} + a4_{i})
        if not ({finite}):
            return xs, vs, "non-finite state"
        xs.append(x1_{i})
        vs.append(v1_{i})
    return xs, vs, None
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
            @t tk{s} = t + {c!r} * dt
            xk{s}_{{i}} = x_{{i}} + dt * {a_vk}
            vk{s}_{{i}} = v_{{i}} + dt * {a_ak}
            @law(k{s})
"""

_RKF45 = """\
def kernel(x, v, a_t, b_t, atol, rtol, max_step, max_attempts):
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
        return ts, xs, vs, accels, "law overflow"
    accels.append(a_{i})
    dt = min(max_step, (b_t - a_t) / 10.0)
    min_step = 1e-14 * (b_t - a_t)
    t_stop = b_t - 1e-15 * (b_t - a_t)
    for _ in range(max_attempts):
        if not t < t_stop:
            break
        dt = min(dt, b_t - t)
        try:
{stages}
            err = 0.0
            scale = atol + rtol * max({abs_x}, {abs_v}, 1.0)
            err = max(err, abs(dt * {err_vk}), abs(dt * {err_ak}))
        except (OverflowError, ValueError):
            return ts, xs, vs, accels, "law overflow"
        if not isfinite(err):
            return ts, xs, vs, accels, "non-finite state"
        if err <= scale:
            x_{i} = x_{i} + dt * {b4_vk}
            v_{i} = v_{i} + dt * {b4_ak}
            t = t + dt
            if not ({finite}):
                return ts, xs, vs, accels, "non-finite state"
            try:
                @law()
            except (OverflowError, ValueError):
                return ts, xs, vs, accels, "law overflow"
            ts.append(t)
            xs.append(x_{i})
            vs.append(v_{i})
            accels.append(a_{i})
        ratio = (scale / err) ** 0.2 if err > 0.0 else 5.0
        dt = min(max_step, dt * min(5.0, max(0.2, 0.9 * ratio)))
        if dt < min_step:
            return ts, xs, vs, accels, "step underflow"
    return ts, xs, vs, accels, "RKF45_MAX_ATTEMPTS reached" if t < t_stop else None
"""


@dataclass(frozen=True)
class ExplicitODE:
    """One system's explicit law x' = v, a = M^-1 c, as generated source.

    ``law`` and ``time`` are emitted once by ``assemble_explicit``. ``law``
    reads the stage time ``t{u}``, ``x{s}_i``, ``v{s}_i`` and the time terms
    ``T{u}_k``, and assigns ``a{s}_i``, where ``{s}`` is a stage suffix and
    ``{u}`` the suffix of the stage's time; ``time`` binds each time term,
    a time-only factor (a signal, a power of t), once per stage time. So
    each loop inlines the law per stage instead of calling a function; a
    state-dependent mass is solved by the straight-line elimination inside
    the law, whose work locals (``m_r_c``, ``r_r``) are shared by the
    stages. The loops built from it are compiled on first use and run on
    Python floats and ``math`` only, doing the same float operations in the
    same order as a per-coordinate loop around a law callable would; RKF45's
    first stage takes the knot's law value instead of evaluating the law
    again at the same point. Two laws are equal, and hash equal, when their
    ``n``, ``law`` and ``time`` are. ``column_law`` is the ``(time, law)``
    pair of the same law with every power a ``float_power`` call, for a
    constant mass only (it is None otherwise): that law runs on whole
    columns of samples, in ``sample_columns``. ``rhs`` evaluates the law at
    one state and returns a list; it defaults to ``sample`` on one row, and
    the loops never call it.
    """

    n: int
    law: str
    time: str
    column_law: tuple[str, str] | None = field(default=None, compare=False, repr=False)
    rhs: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.rhs is None:
            object.__setattr__(self, "rhs", lambda t, x, v: self.sample((t,), (x,), (v,)))

    def _join(self, item: str, sep: str) -> str:
        return sep.join(item.format(i=i) for i in range(self.n))

    @cached_property
    def sample(self):
        """``sample(taus, xs, vs) -> accels``: the law at each (t, x, v)
        row, as one flat row-major list."""
        return _define(_SAMPLE, self.n, (self.time, self.law))

    @cached_property
    def sample_columns(self):
        """``sample_columns(taus, xs, vs) -> accels``: the column law on the
        (N,) grid and the (n, N) columns of x and v, as n columns (an array,
        or a float for a law that holds no sample)."""
        answer = self._join("a_{i}", ", ")
        return _define(_SAMPLE_COLUMNS, self.n, self.column_law, _COLUMN_NAMES, answer=answer)

    @cached_property
    def rk4(self):
        """``rk4(taus, x0, v0, h) -> (xs, vs, truncation)``: one RK4 step from
        each time in ``taus``. ``xs``/``vs`` are flat row-major lists of the
        accepted states, starting with (x0, v0); ``truncation`` is why the
        run stopped early, or None."""
        finite = self._join("isfinite(x1_{i}) and isfinite(v1_{i})", " and ")
        return _define(_RK4, self.n, (self.time, self.law), finite=finite)

    @cached_property
    def rkf45(self):
        """``rkf45(x0, v0, a_t, b_t, atol, rtol, max_step, max_attempts)``
        returns ``(ts, xs, vs, accels, truncation)``: the accepted knots and
        their states and accelerations as flat row-major lists, and why the
        run stopped early, or None. ``accels`` is empty when the law fails
        at the initial state. A run that has not reached ``b_t`` after
        ``max_attempts`` steps, accepted or rejected, is truncated."""
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
        return _define(
            _RKF45, self.n, (self.time, self.law), stages=stages.rstrip("\n"),
            abs_x=abs_x, abs_v=abs_v,
            err_vk=_dot(_RKF_ERR, "vk{}_{{i}}"), err_ak=_dot(_RKF_ERR, "ak{}_{{i}}"),
            b4_vk=_dot(_RKF_B4, "vk{}_{{i}}"), b4_ak=_dot(_RKF_B4, "ak{}_{{i}}"),
            finite=self._join("isfinite(x_{i}) and isfinite(v_{i})", " and "),
        )


# ---------------------------------------------------------------------------
# explicit ODE assembly
# ---------------------------------------------------------------------------


def mass_and_force(eom: EquationsOfMotion) -> tuple[tuple, tuple, bool]:
    """Split affine residuals R = c - M a into (M, c) symbolically.

    Returns (M, c, constant): M is an n x n tuple of Expr with
    M_ij = -dR_i/da^j, c_i is R_i with a^0 .. a^(n-1) zeroed: the terms of
    R_i that hold none of them, taken as they are, since the other terms
    vanish and a subset of canonical terms is canonical. ``constant`` says
    that every entry of M involves parameters only.
    """
    n = eom.n
    mass = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = -partial(eom.residuals[i], acc(j))
            if entry.contains_kind(SymbolKind.ACC):
                raise MechError("residuals are not affine in the accelerations")
            row.append(entry)
        mass.append(tuple(row))
    force = tuple(
        Expr(tuple(
            (mono, c) for mono, c in r.terms
            if not any(sym.kind == SymbolKind.ACC and sym.index < n for sym, _ in mono)
        ))
        for r in eom.residuals
    )
    constant = all(s.kind == SymbolKind.PARAM for row in mass for e in row for s in e.symbols())
    return tuple(mass), force, constant


def invert_mass(mass: tuple, params: Mapping) -> list:
    """The inverse of a constant mass matrix (``mass_and_force``'s M), as
    rows of floats.

    Each entry is evaluated once by ``compile_expr`` and the columns of the
    inverse are solved against the unit vectors by the emitted elimination.
    ``params`` may hold exact values. Raises MechError for n beyond
    MAX_MASS_COORDINATES, for an entry of M or of its inverse beyond the
    float range, and SingularMassError for a pivot below PIVOT_THRESHOLD.
    """
    n = len(mass)
    solve = _solver(n)
    try:  # a float power, or a parameter's float(), may overflow
        M0 = [[compile_expr(e, params)(0.0, (), ()) for e in row] for row in mass]
        finite = all(math.isfinite(m) for row in M0 for m in row)
    except OverflowError:
        finite = False
    if not finite:
        raise MechError("a mass matrix entry is beyond the float range")
    cols = [solve(M0, [float(r == j) for r in range(n)]) for j in range(n)]
    if not all(math.isfinite(a) for col in cols for a in col):
        raise MechError("the inverse mass matrix is beyond the float range")
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def assemble_explicit(eom: EquationsOfMotion, params: Mapping[str, float]) -> ExplicitODE:
    """Solve M a = c pointwise for the accelerations.

    (M, c) come from ``mass_and_force``. The solve is Gaussian elimination
    with partial pivoting, emitted as straight-line source for this n
    (``_elimination``); it reports the offending state when a pivot falls
    below PIVOT_THRESHOLD. A constant mass matrix is inverted once
    (``invert_mass``), a state-dependent one is solved inline at every law
    evaluation. ``emit`` writes the resulting law as source, with the
    template of a power: the system's ``(time, law)`` with ``**``, and for
    a constant mass its column law with ``float_power``. A mass of more
    than MAX_MASS_COORDINATES coordinates raises MechError before its
    elimination is emitted.
    """
    n = eom.n
    mass_sym, force_sym, constant = mass_and_force(eom)
    if constant:
        inverse = invert_mass(mass_sym, params)

    def emit(power: str) -> tuple[str, str]:
        terms: dict = {}  # a time-only factor's source: its name

        def source(e: Expr) -> str:
            return expr_source(
                e, params, t="t{u}", x="x{{s}}_{}", v="v{{s}}_{}", power=power,
                time_factor=lambda factor: terms.setdefault(factor, f"T{{u}}_{len(terms)}"),
            )

        if constant and n == 1:
            # a unit mass leaves out the exact *1.0
            scale = "" if inverse[0][0] == 1.0 else f"*{inverse[0][0]!r}"
            law = [f"a{{s}}_0 = ({source(force_sym[0])}){scale}"]
        elif constant:
            law = [f"r_{i} = {source(e)}" for i, e in enumerate(force_sym)]
            law += [f"a{{s}}_{i} = {_dot(inverse[i], 'r_{}')}" for i in range(n)]
        else:
            law = [f"r_{i} = {source(e)}" for i, e in enumerate(force_sym)]
            law += [f"m_{i}_{j} = {source(mass_sym[i][j])}" for i in range(n) for j in range(n)]
            xs, vs = ("".join(f"{kind}{{s}}_{i}, " for i in range(n)) for kind in "xv")
            law += _elimination(n, f"(t{{u}}, ({xs}), ({vs}))")
        return "\n".join(f"{name} = {factor}" for factor, name in terms.items()), "\n".join(law)

    time, law = emit("{}**{}")
    return ExplicitODE(n, law, time, emit("float_power({}, {})") if constant else None)


# ---------------------------------------------------------------------------
# trajectories and integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled jet-space section (t_k, x_k, v_k) on a uniform grid.

    ``xs`` and ``vs`` follow the ``as_samples`` layout, (N, n); a grid that
    is not uniform and increasing, or whose step is not ``h``, raises
    ValueError. ``truncation`` says why ``integrate`` stopped before the end
    of the grid, None when it did not: "non-finite state", "law overflow"
    (an OverflowError or ValueError raised in the law), "step underflow"
    and "RKF45_MAX_ATTEMPTS reached" from the kernels, or "resampled grid
    ends early" when RKF45's knots stop short of the grid with none of
    those. ``law`` is the ExplicitODE that ``integrate`` ran to make
    it; it is None on a trajectory built by hand. What is computed from the
    samples (``accels``, and each expression evaluated on them) is kept on
    the trajectory, so its samples must not be written after first use.
    """

    taus: np.ndarray
    xs: np.ndarray  # (N, n)
    vs: np.ndarray  # (N, n)
    h: float
    truncation: str | None = None
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

    @property
    def truncated(self) -> bool:
        return self.truncation is not None

    @cached_property
    def accels(self) -> np.ndarray:
        """The (N, n) accelerations of the trajectory's own law at each
        sample, computed on first use."""
        if self.law is None:
            raise MechError("a trajectory built without a law has no accelerations")
        return accelerations_on(self, self.law)

    @cached_property
    def _evaluated(self) -> dict:
        """The read-only samples ``_eval_on_trajectory`` computed on this
        trajectory, keyed by expression and parameter literals."""
        return {}


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
    cubic Hermite interpolation. Non-finite states, float overflow inside
    the law, an RKF45 step underflow and an RKF45 run past
    RKF45_MAX_ATTEMPTS steps truncate the trajectory instead of raising, and
    its ``truncation`` names which of them it was.
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
        xs, vs, truncation = ode.rk4(taus[:-1].tolist(), x0, v0, h_eff)
        m = len(xs) // n
        return Trajectory(
            taus[:m], np.array(xs).reshape(m, n), np.array(vs).reshape(m, n), h_eff,
            truncation, ode,
        )
    if method != "rkf45":
        raise ValueError(f"unknown integrator '{method}'")

    knot_ts, kx, kv, ka, truncation = ode.rkf45(
        x0, v0, a_t, b_t, RKF45_ATOL, RKF45_RTOL, RKF45_MAX_STEP, RKF45_MAX_ATTEMPTS
    )
    xs, vs = _hermite_resample(taus, knot_ts, kx, kv, ka, n, b_t - a_t)
    m = len(xs)
    if truncation is None and m < len(taus):
        truncation = "resampled grid ends early"
    return Trajectory(taus[:m], xs, vs, h_eff, truncation, ode)


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


def _eval_on_trajectory(e: Expr, traj: Trajectory, params, literals=None) -> np.ndarray:
    """``e`` at every sample, as a read-only array; reads ``traj.accels`` only
    if ``e`` has accelerations. The array is kept on ``traj``, keyed by the
    expression and its ``param_literals``, so each expression and set of
    parameter literals is compiled and evaluated once per trajectory. A
    caller that looks up several expressions passes ``literals``, the
    ``param_literals(params)`` it built once."""
    key = (e, param_literals(params) if literals is None else literals)
    out = traj._evaluated.get(key)
    if out is None:
        a_rows = traj.accels.T if e.contains_kind(SymbolKind.ACC) else None
        values = compile_expr(e, params)(traj.taus, traj.xs.T, traj.vs.T, a_rows)
        out = np.broadcast_to(np.asarray(values, dtype=float), traj.taus.shape).copy()
        out.flags.writeable = False
        traj._evaluated[key] = out
    return out


def accelerations_on(traj: Trajectory, ode: ExplicitODE) -> np.ndarray:
    """Accelerations recomputed from the explicit law at each sample.

    A law with a constant mass runs on whole columns (``sample_columns``),
    with the float operations of the row loop (``sample``) element by
    element. Where that gives a value that is not finite, the row loop runs
    instead, so its errors (a power beyond the float range raises
    OverflowError there) and its NaN bits are what the caller sees. The
    column law raises nothing itself: its signals are sines of the finite
    grid times. A state-dependent mass always takes the row loop.
    """
    if ode.column_law is not None:
        out = np.empty(traj.xs.shape)
        with np.errstate(all="ignore"):
            columns = ode.sample_columns(traj.taus, traj.xs.T, traj.vs.T)
        for i, column in enumerate(columns):
            out[:, i] = column
        if np.isfinite(out).all():
            return out
    accels = ode.sample(traj.taus.tolist(), traj.xs.tolist(), traj.vs.tolist())
    return np.array(accels, dtype=float).reshape(traj.xs.shape)


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    max_divergence: float

    def within(self, tol: float) -> bool:
        """Whether the divergence passes ``tol``; a NaN divergence does not."""
        return self.max_divergence <= tol


def newton_oracle_eom(oracle_forces: Sequence[Expr], n: int) -> EquationsOfMotion:
    """Hand-written second law m a_i = F_i as residuals, bypassing any
    momentum bookkeeping (requires a parameter named 'm')."""
    m = Expr.var(Symbol(SymbolKind.PARAM, name="m"))
    residuals = tuple(
        oracle_forces[i] - m * Expr.var(acc(i)) for i in range(n)
    )
    return EquationsOfMotion(residuals)


def oracle_compare(
    system, method: str = "rk4", derived: Trajectory | None = None
) -> OracleReport:
    """Compare the derived equations with the declared Newtonian law on the
    system's time grid, with identical integrator and steps; report the max
    state divergence.

    ``derived`` is the derived law's trajectory from the system's ``init``
    over its ``time`` clause with ``method``, when the caller has already
    integrated it. The derived law is its ``law``, or is assembled here.
    When the oracle's law equals the derived one, nothing is
    integrated and the divergence is exactly 0: the same law on the same
    inputs gives a bitwise identical trajectory. The oracle's mass is
    diag(m), so such a law has a constant mass and can only truncate, on
    both sides alike, and the parser guarantees the finite ``init`` and
    valid ``time`` that ``integrate`` would check. Otherwise what is
    missing is integrated: the oracle, and the derived law when no
    ``derived`` is given. A truncated trajectory raises TruncationError,
    whether it is the derived one, given or integrated here, or the
    oracle's, whose message names the oracle: a divergence measured on part
    of the grid would look like a verdict on the whole.

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
    # both laws are assembled before either is integrated, so an assembly
    # failure is reported before a failure mid-run
    derived_ode = (
        assemble_explicit(dual_spencer(system.phi), params) if derived is None else derived.law
    )
    oracle_ode = assemble_explicit(
        newton_oracle_eom(system.oracle_forces, system.n), params
    )
    if derived_ode == oracle_ode:
        return OracleReport(0.0)
    if derived is None:
        derived = integrate(derived_ode, x0, v0, (a, b), h, method)
    if derived.truncated:
        raise TruncationError(f"trajectory truncated ({derived.truncation})")
    oracle = integrate(oracle_ode, x0, v0, (a, b), h, method)
    if oracle.truncated:
        raise TruncationError(f"oracle trajectory truncated ({oracle.truncation})")
    div = np.abs(derived.xs - oracle.xs).sum(axis=1) + np.abs(derived.vs - oracle.vs).sum(axis=1)
    return OracleReport(float(div.max()))


# ---------------------------------------------------------------------------
# energy balance audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    """Sampled energy ledger: E, power input P, residual rho = dE/dt - P.

    A value beyond the float range stays in the ledger as inf or nan, so
    computing it, here and in ``energy_audit``, raises no numpy warning.
    """

    E: np.ndarray
    P: np.ndarray
    rho: np.ndarray
    max_residual: float
    rms_residual: float

    @property
    @np.errstate(all="ignore")
    def absolute_drift(self) -> float:
        """max |E - E(0)|."""
        return float(np.abs(self.E - self.E[0]).max())

    @property
    def relative_drift(self) -> float:
        """``absolute_drift`` / |E(0)|, with |E(0)| floored at 1e-300."""
        return self.absolute_drift / max(abs(float(self.E[0])), 1e-300)

    @property
    def drift_is_absolute(self) -> bool:
        """Whether |E(0)| is below 1e-300, the floor ``relative_drift``
        divides by: a drift relative to it would say nothing, so it is
        reported as ``absolute_drift``."""
        return abs(float(self.E[0])) < 1e-300


@np.errstate(all="ignore")
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
    peak = float(np.abs(rho).max())
    rms = float(np.sqrt(np.mean(rho**2)))
    if math.isinf(rms) and math.isfinite(peak):  # rho**2 overflowed
        rms = peak * float(np.sqrt(np.mean((rho / peak) ** 2)))
    return BalanceReport(E, P, rho, peak, rms)


# ---------------------------------------------------------------------------
# first variation and transversality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationField:
    """Variation delta-x along a trajectory: symbolic in t (``exprs``), or
    sampled (``samples``, optionally ``dot_samples``).

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

    def sample_on(self, taus: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(delta, delta_dot) arrays of shape (N, n) on the given grid:
        ``sample_fields`` of this one field. A symbolic field is compiled and
        evaluated on each call; to use one on many trajectories, sample it
        once and pass ``VariationField(samples=..., dot_samples=...)``.
        """
        (sampled,) = sample_fields((self,), taus, h)
        return sampled

    def _check_ends(self, delta: np.ndarray):
        if self.vanishes_at_a and not np.abs(delta[0]).max() <= 1e-12:
            raise ValueError("variation flagged as vanishing at a does not")
        if self.vanishes_at_b and not np.abs(delta[-1]).max() <= 1e-12:
            raise ValueError("variation flagged as vanishing at b does not")


def sample_fields(
    fields: Sequence[VariationField], taus: np.ndarray, h: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(delta, delta_dot) arrays of shape (N, n) of each field on the grid,
    one field at a time, in order.

    Every symbolic component of every field, each followed by its time
    derivative, is compiled into one function (``compile_exprs``), so a
    time factor that components share is evaluated once. A field's values
    are evaluated when the field is reached, so only one field's samples
    are held at a time. A sampled field brings its derivative samples, or
    they are differenced at second order. Raises ValueError when a field
    flagged as vanishing at an end does not, as that field is reached.
    """
    exprs = [
        d for f in fields if f.exprs is not None for e in f.exprs for d in (e, partial(e, TAU))
    ]
    values = compile_exprs(exprs, {})(taus, (), ()) if exprs else iter(())
    for variation in fields:
        if variation.exprs is None:
            delta = as_samples(variation.samples, len(taus))
            if variation.dot_samples is not None:
                ddot = as_samples(variation.dot_samples, len(taus), delta.shape[1])
            else:
                ddot = diff_order2(delta, h)
        else:
            # value and slope of each component, in turn
            cols = [
                np.broadcast_to(np.asarray(next(values), float), taus.shape)
                for _ in range(2 * len(variation.exprs))
            ]
            delta, ddot = np.column_stack(cols[0::2]), np.column_stack(cols[1::2])
        variation._check_ends(delta)
        yield delta, ddot


def _boundary_pairing(traj: Trajectory, phi: VerticalOneForm, delta, params, literals):
    """(Pi_i delta^i) at the first and the last sample, for (N, n) ``delta``."""
    ends = [0, -1]
    pairing = sum(
        _eval_on_trajectory(phi.Pi[i], traj, params, literals)[ends] * delta[ends, i]
        for i in range(traj.n)
    )
    return float(pairing[0]), float(pairing[1])


def transversality_term(
    traj: Trajectory, phi: VerticalOneForm, variation: VariationField, params
) -> tuple[float, float]:
    """Boundary pairing (Pi_i delta-x^i) at the two interval endpoints."""
    delta, _ = variation.sample_on(traj.taus, traj.h)
    return _boundary_pairing(traj, phi, delta, params, param_literals(params))


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
    literals = param_literals(params)
    if form == "pre":
        integrand = np.zeros_like(traj.taus)
        for i in range(traj.n):
            integrand += _eval_on_trajectory(phi.F[i], traj, params, literals) * delta[:, i]
            integrand += _eval_on_trajectory(phi.Pi[i], traj, params, literals) * ddot[:, i]
        return simpson_uniform(integrand, traj.h)
    if form != "post":
        raise ValueError("form must be 'pre' or 'post'")
    residuals = dual_spencer(phi).residuals
    integrand = np.zeros_like(traj.taus)
    for i in range(traj.n):
        integrand += _eval_on_trajectory(residuals[i], traj, params, literals) * delta[:, i]
    total = simpson_uniform(integrand, traj.h)
    theta_a, theta_b = _boundary_pairing(traj, phi, delta, params, literals)
    return total + (theta_b - theta_a)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


# rows in one block of write_trajectory_csv
_CSV_BLOCK_ROWS = 512

# Fewest values (rows x columns) of a table whose odd blocks
# write_trajectory_csv formats in a forked child. Forking, starting and
# reaping the child take about 2.5 ms on a 2-CPU x86-64 Linux VM, and
# formatting about 0.5 us a value; measured on whole simulate jobs there,
# the fork wins half the time at 18,000-21,000 values (CHANGES.md).
CSV_FORK_VALUES = 20_000


def _send_blocks(send, block, starts):
    """The forked child's share of write_trajectory_csv, sent in order."""
    for start in starts:
        send(block(start))


def write_trajectory_csv(traj: Trajectory, path, report: BalanceReport | None = None):
    """One row per sample, 17 significant digits, deterministic.

    The rows are formatted a block at a time: one ``%`` applies the row
    format, repeated once per row, to the block's values as one flat tuple,
    and the block is written at once. A table of at least
    ``CSV_FORK_VALUES`` values has its odd blocks formatted by a forked
    child (``forking.child_stream``) while this process formats the even
    ones and writes each block in row order; a block the child does not
    deliver is formatted here. Each process holds about one block at a
    time, and the bytes are the same either way.
    """
    n = traj.n
    header = ["tau"] + [f"x{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
    columns = [traj.taus[:, None], traj.xs, traj.vs]
    if report is not None:
        header += ["E", "P", "rho"]
        columns += [report.E[:, None], report.P[:, None], report.rho[:, None]]
    table = np.hstack(columns)
    row = (",".join(["%.17g"] * len(header)) + "\n").encode()

    def block(start: int) -> bytes:
        values = table[start : start + _CSV_BLOCK_ROWS]
        return (row * len(values)) % tuple(values.ravel().tolist())

    starts = range(0, len(table), _CSV_BLOCK_ROWS)
    with open(path, "wb") as fh, child_stream(
        _send_blocks, block, starts[1::2], fork=table.size >= CSV_FORK_VALUES
    ) as received:
        fh.write((",".join(header) + "\n").encode())
        for i, start in enumerate(starts):
            data = next(received, None) if i % 2 else None
            fh.write(block(start) if data is None else data)
