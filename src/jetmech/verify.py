"""Randomized property suites behind the verify command.

Each suite draws deterministic pseudo-random inputs (seeded per case, so a
failure names the exact case seed to reproduce), checks one of the
structural identities of the engine, and reports a pass/fail result:

- cochain contraction: decomposition reconstructs its source form exactly,
  the remainder is homotopy-annulled, and the remainder agrees with the
  two-form homotopy of the form's differential;
- Euler-Lagrange equivalence: the variational derivative (the dual-Spencer
  residuals of d0(L)) equals the textbook dL/dx^i - D_t(dL/dv^i);
- split invariance: any valid split assembles the same residuals as the
  direct derivation;
- first-variation extremality: the functional vanishes on solution
  trajectories for fixed-boundary variations, grows on perturbed dynamics,
  and the two quadrature forms agree (integration by parts) on both the
  solution and the perturbed trajectory;
- Spencer integrability: integrated trajectories are integrable sections
  at second order; a non-prolonged section reports a unit residual.

A comparison that decides a pass is written so that NaN fails it.

``run_builtin_suites`` runs the suites in two processes through
``forking.child_stream``: a forked child runs the cochain-contraction and
split-invariance suites, the two heaviest, and sends each one's pickled
result as it finishes, while this process runs the other three. The child
holds only these symbolic suites because they are exact algebra in pure
Python that calls no numpy. The report is the same either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

import numpy as np

from .dynamics import (
    Trajectory,
    VariationField,
    assemble_explicit,
    first_variation,
    integrate,
    sample_fields,
)
from .dsl import preset
from .errors import MechError
from .forking import child_stream
from .formcalc import (
    Decomposition,
    VerticalOneForm,
    d0,
    decompose,
    homotopy,
    homotopy_of_d1,
    reconstruction_residual,
)
from .spencer import (
    assemble_with_split,
    dual_spencer,
    spencer_residual,
    total_time_derivative,
    variational_derivative,
)
from .symexpr import (
    TAU,
    Expr,
    PolynomialSignal,
    ZERO,
    coord,
    param,
    partial,
    signal_symbol,
    vel,
)

DEFAULT_SEED = 12345

# cases drawn by each randomized suite
COCHAIN_CASES = 200
EL_CASES = 100
SPLIT_CASES = 100
VARIATION_CASES = 20


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seed: int | None = None


# ---------------------------------------------------------------------------
# random generators (shared with the test suite)
# ---------------------------------------------------------------------------

_SIGNAL_POOL = PolynomialSignal("w", (Fraction(1), Fraction(-1, 2), Fraction(1, 3)))

# a term's coefficient, by its two raw draws: below(13) for the numerator
# randint(-6, 6) or 1, then below(3) for the denominator randint(1, 3)
_COEFFICIENTS = tuple(
    tuple(
        num // den if num % den == 0 else Fraction(num, den)
        for den in (1, 2, 3)
    )
    for num in (r - 6 or 1 for r in range(13))
)


@cache
def _plan(n: int, max_degree: int, max_terms: int, with_time: bool, with_signal: bool) -> tuple:
    """What ``random_expr`` needs for one set of arguments, made once: the
    bit length of ``max_terms``, the other bounds it draws below with their
    bit lengths, the pool of symbols in canonical order, the place in that
    order of each symbol in draw order, and the one-factor monomial of each
    symbol in draw order. Raises ValueError for ``max_terms < 1`` or
    ``max_degree < 0``, whose draws would have no value to fall below."""
    if max_terms < 1 or max_degree < 0:
        raise ValueError(
            "random_expr needs max_terms >= 1 and max_degree >= 0, "
            f"not {max_terms} and {max_degree}"
        )
    pool = [param("p"), param("q")]
    pool += [coord(i) for i in range(n)] + [vel(i) for i in range(n)]
    if with_time:
        pool.append(TAU)
    if with_signal:
        pool.append(signal_symbol(_SIGNAL_POOL))
    ranked = sorted(pool)
    degrees = max_degree + 1
    return (
        max_terms.bit_length(), degrees, degrees.bit_length(), len(pool), len(pool).bit_length(),
        tuple(ranked), tuple(ranked.index(sym) for sym in pool),
        tuple(((sym, 1),) for sym in pool),
    )


def random_expr(
    rng: random.Random,
    n: int,
    max_degree: int = 4,
    max_terms: int = 4,
    with_time: bool = True,
    with_signal: bool = False,
) -> Expr:
    """Random canonical polynomial over the jet vocabulary.

    Each draw is the one ``rng.randint`` or ``rng.choice`` makes: a value
    below a bound ``m``, taken as ``Random._randbelow`` takes it, from
    ``rng.getrandbits(m.bit_length())`` until one falls below ``m``. The
    loop runs here, with the bounds, their bit lengths and the pool taken
    from one plan per set of arguments (``_plan``), so a seed gives the same
    expression and leaves ``rng`` in the same state as those calls would.
    Drawn coefficients are canonical and nonzero, so unless two terms share
    a monomial the terms only need sorting.
    """
    k_terms, degrees, k_degree, size, k_pool, symbols, ranks, singles = _plan(
        n, max_degree, max_terms, with_time, with_signal
    )
    bits = rng.getrandbits
    terms: dict = {}
    merged = False
    count = bits(k_terms)
    while count >= max_terms:  # randint(1, max_terms) - 1
        count = bits(k_terms)
    for _ in range(count + 1):
        degree = bits(k_degree)
        while degree >= degrees:  # randint(0, max_degree)
            degree = bits(k_degree)
        if degree == 0:
            mono = ()
        elif degree == 1:
            r = bits(k_pool)
            while r >= size:  # choice(pool)
                r = bits(k_pool)
            mono = singles[r]
        else:
            powers: dict = {}
            for _ in range(degree):
                r = bits(k_pool)
                while r >= size:  # choice(pool), by canonical place
                    r = bits(k_pool)
                r = ranks[r]
                powers[r] = powers.get(r, 0) + 1
            mono = tuple([(symbols[r], k) for r, k in sorted(powers.items())])
        num = bits(4)
        while num >= 13:  # randint(-6, 6), before its "or 1"
            num = bits(4)
        den = bits(2)
        while den >= 3:  # randint(1, 3) - 1
            den = bits(2)
        q = _COEFFICIENTS[num][den]
        if mono in terms:
            terms[mono] += q
            merged = True
        else:
            terms[mono] = q
    if merged:
        return Expr.from_map(terms)
    return Expr(tuple(sorted(terms.items())))


def random_vertical_form(
    rng: random.Random, n: int, with_time: bool = True, with_signal: bool = True
) -> VerticalOneForm:
    """Random one-form of ``n`` coordinates; its components hold no index
    >= n and no acceleration, so it is built without the one-form check.

    Each component draws its ``max_degree`` as ``rng.randint(0, 4)`` does,
    then, when ``with_signal``, its signal with ``rng.random() < 0.3``.
    """
    bits = rng.getrandbits

    def make() -> Expr:
        degree = bits(3)
        while degree >= 5:  # randint(0, 4)
            degree = bits(3)
        return random_expr(
            rng,
            n,
            max_degree=degree,
            max_terms=3,
            with_time=with_time,
            with_signal=with_signal and rng.random() < 0.3,
        )

    return VerticalOneForm._valid(
        tuple(make() for _ in range(n)), tuple(make() for _ in range(n))
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def check_cochain_contraction(seed: int) -> CheckResult:
    for i in range(COCHAIN_CASES):
        case_seed = seed + i
        rng = random.Random(case_seed)
        n = rng.randint(1, 3)
        phi = random_vertical_form(rng, n)
        dec = decompose(phi)
        if not reconstruction_residual(dec, phi).is_zero:
            return CheckResult(
                "cochain-contraction", False, "reconstruction mismatch", case_seed
            )
        if not homotopy(dec.anti_exact).is_zero:
            return CheckResult(
                "cochain-contraction", False, "anti-exact part not annulled", case_seed
            )
        if homotopy_of_d1(phi) != dec.anti_exact:
            return CheckResult(
                "cochain-contraction",
                False,
                "remainder differs from two-form homotopy of d(phi)",
                case_seed,
            )
    return CheckResult(
        "cochain-contraction",
        True,
        f"{COCHAIN_CASES}/{COCHAIN_CASES} random forms: exact reconstruction, H(phi_a) = 0",
        seed,
    )


def check_el_equivalence(seed: int) -> CheckResult:
    for i in range(EL_CASES):
        case_seed = seed + 10_000 + i
        rng = random.Random(case_seed)
        n = rng.randint(1, 3)
        lagrangian = random_expr(rng, n, with_signal=rng.random() < 0.3)
        textbook = tuple(
            partial(lagrangian, coord(j)) - total_time_derivative(partial(lagrangian, vel(j)))
            for j in range(n)
        )
        if variational_derivative(lagrangian, n=n) != textbook:
            return CheckResult(
                "el-equivalence", False, "residuals differ symbolically", case_seed
            )
    return CheckResult(
        "el-equivalence",
        True,
        f"{EL_CASES}/{EL_CASES} random Lagrangians: dual-Spencer = variational derivative",
        seed,
    )


def check_split_invariance(seed: int) -> CheckResult:
    for i in range(SPLIT_CASES):
        case_seed = seed + 20_000 + i
        rng = random.Random(case_seed)
        n = rng.randint(1, 3)
        phi = random_vertical_form(rng, n)
        split_lagrangian = random_expr(rng, n, with_signal=rng.random() < 0.3)
        anti = phi - d0(split_lagrangian, n=n)
        dec = Decomposition(split_lagrangian, anti, mode="user-declared")
        try:
            assemble_with_split(dec, phi)  # checks against dual_spencer(phi)
        except MechError as exc:
            return CheckResult("split-invariance", False, str(exc), case_seed)
    return CheckResult(
        "split-invariance",
        True,
        f"{SPLIT_CASES}/{SPLIT_CASES} random splits assemble the direct residuals exactly",
        seed,
    )


def _envelope(a: float, b: float) -> Expr:
    """(t - a)(b - t), with a and b as exact fractions: zero at both ends."""
    t = Expr.var(TAU)
    af, bf = Fraction(a).limit_denominator(10**6), Fraction(b).limit_denominator(10**6)
    return (t - Expr.const(af)) * (Expr.const(bf) - t)


def _fixed_boundary_variation(
    rng: random.Random, a: float, b: float, envelope: Expr
) -> VariationField:
    """(t - a)(b - t) * (c0 + c1 t + c2 t^2), exact zero at both endpoints,
    with random c0, c1, c2. ``envelope`` is ``_envelope(a, b)``, built once
    by the caller for many fields."""
    t = Expr.var(TAU)
    poly = ZERO
    for k in range(3):
        poly = poly + Expr.const(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4))) * t**k
    return VariationField(exprs=(envelope * poly,), vanishes_at_a=True, vanishes_at_b=True)


def check_first_variation(seed: int) -> CheckResult:
    system = preset("damped_ho")
    params = system.param_values()
    a, b = 0.0, 10.0
    h = 1e-3
    x0, v0 = system.init
    eom = dual_spencer(system.phi)
    solution = integrate(assemble_explicit(eom, params), x0, v0, (a, b), h)
    perturbed_params = dict(params, k=params["k"] * 1.1)
    perturbed = integrate(assemble_explicit(eom, perturbed_params), x0, v0, (a, b), h)
    envelope = _envelope(a, b)
    case_seeds = [seed + 30_000 + i for i in range(VARIATION_CASES)]
    fields = [
        _fixed_boundary_variation(random.Random(s), a, b, envelope) for s in case_seeds
    ]
    # the fields share one compiled function and are sampled once, and held
    # for the four first_variation calls, each of which takes all of them
    variations = [
        VariationField(samples=delta, dot_samples=ddot, vanishes_at_a=True, vanishes_at_b=True)
        for delta, ddot in sample_fields(fields, solution.taus, solution.h)
    ]
    sol_pre, pert_pre, sol_post, pert_post = (
        first_variation(traj, system.phi, variations, params, form)
        for form in ("pre", "post")
        for traj in (solution, perturbed)
    )
    for case_seed, variation, sol_value, pert_value, *post_values in zip(
        case_seeds, variations, sol_pre, pert_pre, sol_post, pert_post
    ):
        norm = float(np.abs(variation.samples).max())
        if not abs(sol_value) <= 1e-5 * norm:
            return CheckResult(
                "first-variation",
                False,
                f"|Sigma| = {abs(sol_value):.3e} on a solution (norm {norm:.3e})",
                case_seed,
            )
        if not abs(pert_value) >= max(100.0 * abs(sol_value), 1e-6 * norm):
            return CheckResult(
                "first-variation",
                False,
                f"perturbed dynamics not detected ({abs(pert_value):.3e})",
                case_seed,
            )
        # pre == post holds on any trajectory its own law made, not only a solution
        for pre_value, post_value in zip((sol_value, pert_value), post_values):
            scale = 1.0 + abs(pre_value) + abs(post_value) + norm
            if not abs(pre_value - post_value) <= 1e-8 * scale:
                return CheckResult(
                    "first-variation",
                    False,
                    f"integration-by-parts identity off by {abs(pre_value - post_value):.3e}",
                    case_seed,
                )
    return CheckResult(
        "first-variation",
        True,
        f"{VARIATION_CASES}/{VARIATION_CASES} fixed-boundary variations: extremality, "
        "detection of perturbed dynamics, and integration-by-parts hold",
        seed,
    )


def check_spencer_residual(seed: int) -> CheckResult:
    system = preset("harmonic")
    params = system.param_values()
    ode = assemble_explicit(dual_spencer(system.phi), params)
    maxima = []
    for h in (2e-3, 1e-3):
        traj = integrate(ode, system.init[0], system.init[1], (0.0, 10.0), h)
        maxima.append(float(np.abs(spencer_residual(traj)).max()))
    ratio = maxima[0] / maxima[1]
    if not ratio >= 3.5:
        return CheckResult(
            "spencer-residual", False, f"halving ratio {ratio:.2f} < 3.5", seed
        )
    taus = np.linspace(0.0, 1.0, 101)
    broken = Trajectory(taus, taus.reshape(-1, 1), np.zeros((101, 1)), taus[1] - taus[0])
    r = spencer_residual(broken)
    if not np.abs(r - 1.0).max() <= 1e-9:
        return CheckResult(
            "spencer-residual", False, "non-integrable section not flagged", seed
        )
    return CheckResult(
        "spencer-residual",
        True,
        f"halving ratio {ratio:.2f} (order 2); unit residual on the broken section",
        seed,
    )


ALL_SUITES = (
    check_cochain_contraction,
    check_el_equivalence,
    check_split_invariance,
    check_first_variation,
    check_spencer_residual,
)


# places in ALL_SUITES of the suites a forked child runs: cochain
# contraction and split invariance, the heaviest two, neither of which calls
# numpy (see the module docstring)
FORKED_SUITES = (0, 2)


def _outcome(suite, seed: int):
    try:
        return suite(seed)
    except Exception as exc:  # raised in suite order, once the child is reaped
        return exc


def run_builtin_suites(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The result of every suite in ``ALL_SUITES``, in that order.

    Where ``forking.child_stream`` can start a child, the child runs the
    suites at ``FORKED_SUITES`` in order, sending each ``CheckResult`` as
    the suite finishes, while this process runs the others. Suites the
    child does not deliver, because none was started or it failed first,
    run here after the others. The child is always reaped, and killed
    first when this process raises. A suite that raises surfaces in suite
    order, as it does when the suites run one after another, so the
    results, and the exception, are the same either way.
    """
    suites = ALL_SUITES
    with child_stream(lambda suite: suite(seed), [suites[i] for i in FORKED_SUITES]) as stream:
        outcomes = {
            i: _outcome(suite, seed)
            for i, suite in enumerate(suites)
            if i not in FORKED_SUITES
        }
        outcomes.update(zip(FORKED_SUITES, stream))
    results = []
    for i, suite in enumerate(suites):
        result = outcomes[i] if i in outcomes else suite(seed)
        if isinstance(result, Exception):
            raise result
        results.append(result)
    return results
