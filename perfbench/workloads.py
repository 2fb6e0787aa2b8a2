"""Seeded workload generators.

A workload is a fixed list of CLI jobs (one pass) plus the input files the
jobs read. Each job carries its expected exit code and the reference check
the harness applies to its outputs. Everything here is a pure function of
``(workload, seed, scale)``: the same arguments give byte-identical input
files and job lists, and jetmech sees only the generated files and argv.

Expressions are kept as `.mech` surface strings. The same strings are
written into the system files and translated to sympy by ``references``,
so the reference equations come from the generator, not from jetmech.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Jobs run in a per-pass directory; generated system files sit beside it.
INPUTS = "../inputs/"


@dataclass(frozen=True)
class MechSystem:
    """A generated (or transcribed) `.mech` system.

    ``force`` and ``momentum`` are per-coordinate `.mech` expressions;
    ``signals`` maps a name to ("polynomial", coeffs) or
    ("sinusoid", (amplitude, omega, phase)). Systems without ``init`` and
    ``time`` are only decomposed and derived.
    """

    name: str
    coords: tuple[str, ...]
    params: dict
    signals: dict
    force: tuple[str, ...]
    momentum: tuple[str, ...]
    init: tuple | None = None  # (x0, v0)
    time: tuple | None = None  # (a, b, h)

    def to_mech(self) -> str:
        lines = [f'system "{self.name}" {{']
        for p, value in self.params.items():
            lines.append(f"  parameter {p} = {value}")
        for c in self.coords:
            lines.append(f"  coordinate {c}")
        for s, (kind, args) in self.signals.items():
            lines.append(f"  signal {s} = {kind}({', '.join(str(a) for a in args)})")
        for c, f, pi in zip(self.coords, self.force, self.momentum):
            lines.append(f"  force {c}: {f}")
            lines.append(f"  momentum {c}: {pi}")
        if self.init is not None:
            x0, v0 = self.init
            inits = [f"{c} = {x}" for c, x in zip(self.coords, x0)]
            inits += [f"{c}' = {v}" for c, v in zip(self.coords, v0)]
            lines.append(f"  init {', '.join(inits)}")
        if self.time is not None:
            a, b, h = self.time
            lines.append(f"  time {a} .. {b} step {h}")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class Job:
    """One CLI invocation and what its result must satisfy.

    ``argv`` is passed to ``jetmech.cli.main``. ``output`` is the file the
    job writes, relative to the pass directory. ``check`` names the
    reference check: ("trajectory", MechSystem, method), ("symbolic",
    MechSystem, command) or ("verify-report",).
    """

    argv: list
    expect_exit: int
    output: str
    check: tuple
    env: dict = field(default_factory=dict)

    def spec(self) -> dict:
        """The part the pass runner sees (no reference data)."""
        return {
            "argv": self.argv,
            "expect_exit": self.expect_exit,
            "output": self.output,
            "env": self.env,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: list
    inputs: dict  # file name -> text, written under the inputs directory
    samples_per_pass: int  # trajectory rows written to CSV in one pass
    systems_per_pass: int  # generated systems decomposed and derived


# ---------------------------------------------------------------------------
# presets-sim: the shipped user path
# ---------------------------------------------------------------------------

# The oracle law of each shipped preset, transcribed from its definition
# (m x'' = oracle). The reference integrates this law, never the preset's
# dynamical form, so a wrong derivation inside jetmech cannot agree with it.
_F = Fraction
PRESET_LAWS = {
    "harmonic": MechSystem(
        "harmonic", ("x",), {"m": _F(1), "k": _F(1)}, {},
        ("-k*x",), ("m*x'",), ((_F(1),), (_F(0),)), (_F(0), _F(10), _F(1, 1000)),
    ),
    "damped_ho": MechSystem(
        "damped_ho", ("x",), {"m": _F(1), "k": _F(1), "b": _F(1, 10)},
        {"f": ("sinusoid", (_F(3, 10), _F(6, 5), _F(0)))},
        ("-k*x - b*x' + sig(f)",), ("m*x'",), ((_F(1),), (_F(0),)),
        (_F(0), _F(20), _F(1, 1000)),
    ),
    "duffing": MechSystem(
        "duffing", ("x",), {"m": _F(1), "a": _F(1), "b": _F(3, 10)}, {},
        ("-a*x^3 - b*x'",), ("m*x'",), ((_F(1),), (_F(0),)),
        (_F(0), _F(20), _F(1, 1000)),
    ),
    "vanderpol": MechSystem(
        "vanderpol", ("x",), {"m": _F(1), "k": _F(1), "b0": _F(1)}, {},
        ("-k*x - b0*(x^2 - 1)*x'",), ("m*x'",), ((_F(1),), (_F(0),)),
        (_F(0), _F(20), _F(1, 1000)),
    ),
}
_AUDITED = ("harmonic", "damped_ho")


def _samples(system: MechSystem) -> int:
    a, b, h = system.time
    return round((b - a) / h) + 1


def presets_sim(rng: random.Random, scale: str) -> Workload:
    jobs = []
    samples = 0
    for name, law in PRESET_LAWS.items():
        oracle = ["simulate", name, "--out", f"{name}-rk4.csv", "--oracle"]
        if name in _AUDITED:
            oracle.append("--audit")
        jobs.append(Job(oracle, 0, f"{name}-rk4.csv", ("trajectory", law, "rk4")))
        rkf = ["simulate", name, "--out", f"{name}-rkf45.csv", "--method", "rkf45"]
        jobs.append(Job(rkf, 0, f"{name}-rkf45.csv", ("trajectory", law, "rkf45")))
        samples += 2 * _samples(law)
    if scale == "tiny":
        jobs = [jobs[0], jobs[3]]  # harmonic --oracle --audit, damped_ho rkf45
        samples = sum(_samples(j.check[1]) for j in jobs)
    rng.shuffle(jobs)
    return Workload("presets-sim", jobs, {}, samples, 0)


# ---------------------------------------------------------------------------
# coupled-sim: n = 2..3, non-diagonal or state-dependent mass
# ---------------------------------------------------------------------------

_COORDS = ("x", "y", "z")


def _decimal(rng: random.Random, lo: int, hi: int, den: int = 10) -> Fraction:
    """A decimal-friendly rational in [lo/den, hi/den]."""
    return Fraction(rng.randint(lo, hi), den)


def coupled_system(rng: random.Random, name: str, n: int, state_mass: bool,
                   t_end: Fraction) -> MechSystem:
    """Damped chain of n masses with springs, cubic stiffening and forcing.

    Constant-mass systems couple the momenta (m*x' + c*y'), which makes the
    mass matrix non-diagonal; state-dependent ones scale the first momentum
    by (m + c*y^2). Damping on every coordinate keeps the motion bounded.
    """
    cs = _COORDS[:n]
    params = {"m": _decimal(rng, 100, 120, 100), "c": _decimal(rng, 20, 30, 100),
              "kc": _decimal(rng, 40, 50, 100)}
    force, momentum = [], []
    for i, q in enumerate(cs):
        params[f"k{i}"] = _decimal(rng, 90, 110, 100)
        params[f"b{i}"] = _decimal(rng, 10, 20, 100)
        params[f"a{i}"] = _decimal(rng, 10, 20, 100)
        f = f"-k{i}*{q} - b{i}*{q}' - a{i}*{q}^3"
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                f += f" + kc*({cs[j]} - {q})"
        if i == 0:
            f += " + sig(f)"
        force.append(f)
        if state_mass:
            momentum.append(f"(m + c*{cs[1]}^2)*{q}'" if i == 0 else f"m*{q}'")
        else:
            pi = f"m*{q}'"
            for j in (i - 1, i + 1):
                if 0 <= j < n:
                    pi += f" + c*{cs[j]}'"
            momentum.append(pi)
    # Narrow ranges and a fixed sign pattern for x0 keep the adaptive step
    # count, hence the cost, close across seeds: neighbours displaced the
    # same way excite the slow mode and take ~40% fewer RKF45 steps than
    # neighbours displaced oppositely.
    signals = {"f": ("sinusoid", (_decimal(rng, 10, 20, 100), _decimal(rng, 90, 110, 100),
                                  Fraction(0)))}
    x0 = tuple(_decimal(rng, 70, 90, 100) * (-1) ** i for i in range(n))
    v0 = tuple(_decimal(rng, -20, 20, 100) for _ in cs)
    return MechSystem(name, cs, params, signals, tuple(force), tuple(momentum),
                     (x0, v0), (Fraction(0), t_end, Fraction(1, 1000)))


def coupled_sim(rng: random.Random, scale: str) -> Workload:
    # Every pass covers each (n, mass kind, integrator) cell three times, so
    # seeds change coefficients and initial states but not the mix of paths.
    cells = [(n, state_mass, method) for n in (2, 3) for state_mass in (False, True)
             for method in ("rk4", "rkf45")]
    if scale == "tiny":
        cells = cells[4:]
    else:
        cells = cells * 3
    t_end = Fraction(1) if scale == "tiny" else Fraction(3, 2)
    jobs, inputs, samples = [], {}, 0
    for i, (n, state_mass, method) in enumerate(cells):
        system = coupled_system(rng, f"coupled{i}", n, state_mass, t_end)
        fname = f"coupled{i}.mech"
        inputs[fname] = system.to_mech()
        out = f"coupled{i}.csv"
        argv = ["simulate", INPUTS + fname, "--out", out, "--method", method]
        jobs.append(Job(argv, 0, out, ("trajectory", system, method)))
        samples += _samples(system)
    rng.shuffle(jobs)
    return Workload("coupled-sim", jobs, inputs, samples, 0)


# ---------------------------------------------------------------------------
# symbolic: decompose + derive on random polynomial systems
# ---------------------------------------------------------------------------


def _random_poly(rng: random.Random, vocab: list) -> str:
    """Three random terms of degree <= 4 with rational coefficients."""
    out = ""
    for k in range(3):
        num, den = rng.randint(1, 6), rng.randint(1, 3)
        factors = [f"{num}/{den}" if den > 1 else str(num)]
        factors += [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
        negative = rng.random() < 0.5
        sign = ("-" if negative else "") if k == 0 else (" - " if negative else " + ")
        out += sign + "*".join(factors)
    return out


def symbolic_system(rng: random.Random, name: str, n: int) -> MechSystem:
    cs = _COORDS[:n]
    params = {"p": _decimal(rng, 1, 30), "q": _decimal(rng, -30, 30)}
    signals = {"w": ("polynomial", tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                         for _ in range(rng.randint(1, 3))))}
    vocab = ["p", "q", "t", "sig(w)"] + list(cs) + [f"{c}'" for c in cs]
    force = tuple(_random_poly(rng, vocab) for _ in cs)
    momentum = tuple(_random_poly(rng, vocab) for _ in cs)
    return MechSystem(name, cs, params, signals, force, momentum)


def symbolic(rng: random.Random, scale: str) -> Workload:
    count = 3 if scale == "tiny" else 150
    jobs, inputs = [], {}
    for i in range(count):
        # n cycles through 1..3 so every seed has the same mix of sizes
        system = symbolic_system(rng, f"sym{i}", 1 + i % 3)
        fname = f"sym{i}.mech"
        inputs[fname] = system.to_mech()
        dec = ["decompose", INPUTS + fname, "--json", f"sym{i}-dec.json"]
        der = ["derive", INPUTS + fname, "--json", f"sym{i}-der.json"]
        jobs.append(Job(dec, 0, f"sym{i}-dec.json", ("symbolic", system, "decompose")))
        jobs.append(Job(der, 0, f"sym{i}-der.json", ("symbolic", system, "derive")))
    rng.shuffle(jobs)
    return Workload("symbolic", jobs, inputs, 0, count)


# ---------------------------------------------------------------------------
# verify: the property suites at several suite seeds
# ---------------------------------------------------------------------------

VERIFY_CHECKS = (
    "split-reconstruction",
    "oracle-equivalence",
    "cochain-contraction",
    "el-equivalence",
    "split-invariance",
    "first-variation",
    "spencer-residual",
)


def verify(rng: random.Random, scale: str) -> Workload:
    count = 1 if scale == "tiny" else 4
    jobs = []
    for i in range(count):
        mech_seed = rng.randrange(1, 10**6)
        out = f"verify{i}.json"
        argv = ["verify", "damped_ho", "--builtin-suite", "--json", out]
        jobs.append(Job(argv, 0, out, ("verify-report",), {"MECH_SEED": str(mech_seed)}))
    return Workload("verify", jobs, {}, 0, 0)


_GENERATORS = {
    "presets-sim": presets_sim,
    "coupled-sim": coupled_sim,
    "symbolic": symbolic,
    "verify": verify,
}


WORKLOADS = tuple(_GENERATORS)


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload's job list and input files for this seed."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), scale)
