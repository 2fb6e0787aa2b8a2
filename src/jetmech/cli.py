"""Command-line front end.

Subcommands: decompose (exact/anti-exact split of the dynamical form),
derive (equations of motion), simulate (trajectory CSV with optional
energy audit and oracle comparison), verify (property suites).

Exit codes: 0 success, 1 verification failure, 2 usage/parse error
(including the input bounds below, a system file that is not UTF-8 and a
file that cannot be read or written; the ``--out`` and ``--json`` paths are
opened for writing before any other work), 3 numeric failure, 4 internal error
(an exception no other code names; one line ``internal error: <Type>:
<message>`` on stderr). MECH_SEED fixes the randomized-suite seed; a value
that is not an integer is a usage error (exit 2). ``simulate --tol`` takes a
finite number >= 0; anything else is a usage error.

Input bounds, each a documented constant: expressions nest at most
``dsl.MAX_NESTING`` levels, numeric literals carry a decimal exponent of at
most ``dsl.MAX_EXPONENT`` in magnitude, a time grid has at most
``dsl.MAX_TIME_STEPS`` steps, and one product of expressions forms at most
``symexpr.MAX_TERM_PRODUCT`` term products.

Values stay exact rationals until a command needs them as floats. An
``init`` or ``time`` value beyond the float range (about 1.8e308) is a
parse error at its literal. A parameter, signal argument or coefficient
beyond it still derives and decomposes; ``simulate`` and ``verify`` stop
with exit 2 and one ``error:`` line that names the parameter or gives the
value in scientific notation.

``main(argv)`` may be called many times in one process, as the benchmark
and the tests do. The argparse tree is built on the first call and reused
on every later one (``build_parser`` is cached); the ``cmd_*`` handler is
looked up by subcommand name in this module's globals on every call, so a
handler rebound after the first call takes effect on the next.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

from .dsl import (
    ParseError,
    PRESETS,
    SystemSpec,
    format_expr,
    parse_system,
)
from .dynamics import (
    assemble_explicit,
    energy_audit,
    integrate,
    mass_and_force,
    oracle_compare,
    write_trajectory_csv,
)
from .errors import (
    AdmissibilityError,
    AuditUnsupportedError,
    MechError,
    ReconstructionError,
    SingularMassError,
)
from .formcalc import (
    d1,
    decompose,
    format_one_form,
    format_two_form,
    reconstruction_residual,
)
from .spencer import dual_spencer
from .symexpr import Expr, acc
from .verify import DEFAULT_SEED, CheckResult, check_declared_split, run_builtin_suites

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

# largest derived-versus-oracle state divergence that passes
ORACLE_TOL = 1e-8


def _load_system(target: str) -> SystemSpec:
    if os.path.isfile(target):
        with open(target, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif target in PRESETS:
        text = PRESETS[target]
    else:
        raise MechError(f"no such file or preset: {target}")
    return parse_system(text)


def _report_dict(system=None, dec=None, eom=None, checks=()):
    coords = system.coords if system is not None else ()
    out = {
        "system": system.name if system is not None else None,
        "lagrangian": format_expr(dec.lagrangian, coords) if dec is not None else None,
        "anti_exact": (
            {
                "F": [format_expr(e, coords) for e in dec.anti_exact.F],
                "Pi": [format_expr(e, coords) for e in dec.anti_exact.Pi],
            }
            if dec is not None
            else None
        ),
        "residuals": (
            [format_expr(r, coords) for r in eom.normalized()] if eom is not None else None
        ),
        "checks": [
            {"name": c.name, "pass": bool(c.passed), "detail": c.detail} for c in checks
        ],
    }
    return out


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_decompose(args) -> int:
    system = _load_system(args.target)
    coords = system.coords
    checks = []
    if args.mode == "declared":
        if system.declared_split is None:
            raise MechError(
                "declared mode requires lagrangian/antiexact clauses in the system"
            )
        dec = system.declared_decomposition()
    else:
        dec = decompose(system.phi)
    print(f"system: {system.name}")
    print(f"mode: {dec.mode}")
    print(f"L = {format_expr(dec.lagrangian, coords)}")
    print(f"phi_a = {format_one_form(dec.anti_exact, coords)}")
    differential = d1(dec.anti_exact)
    if dec.anti_exact.is_zero:
        print("phi_a = 0: form is exact")
        checks.append(CheckResult("anti-exact-closed", True, "phi_a = 0"))
    elif differential.is_zero:
        print("phi_a closed")
        checks.append(CheckResult("anti-exact-closed", True, "d(phi_a) = 0"))
    else:
        rendered = format_two_form(differential, coords)
        print(f"phi_a not closed: d(phi_a) = {rendered} (so it cannot be exact)")
        checks.append(CheckResult("anti-exact-closed", False, f"d(phi_a) = {rendered}"))
    residual = reconstruction_residual(dec, system.phi)
    ok = residual.is_zero
    print("reconstruction: exact" if ok else "reconstruction: FAILED")
    checks.append(CheckResult("reconstruction", ok, format_one_form(residual, coords)))
    if args.json:
        _write_json(
            args.json, _report_dict(system, dec, dual_spencer(system.phi), checks)
        )
        print(f"wrote {args.json}")
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_derive(args) -> int:
    system = _load_system(args.target)
    coords = system.coords
    eom = dual_spencer(system.phi)
    normalized = eom.normalized()
    for i, r in enumerate(normalized):
        print(f"{format_expr(r, coords)} = 0")
    mass, force, constant = mass_and_force(eom)
    n = eom.n
    # nonzero on the diagonal and zero off it
    diagonal = all(mass[i][j].is_zero != (i == j) for i in range(n) for j in range(n))
    if constant and diagonal:
        for i in range(n):
            lhs = format_expr(mass[i][i] * Expr.var(acc(i)), coords)
            print(f"explicit: {lhs} = {format_expr(force[i], coords)}")
    else:
        print("warning: mass matrix singular or non-diagonal; residuals left implicit")
    if args.json:
        _write_json(args.json, _report_dict(system, None, eom, ()))
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    system = _load_system(args.target)
    if system.init is None:
        raise MechError("simulate requires init")
    if system.time is None:
        raise MechError("simulate requires a time clause")
    params = system.param_values()
    method = args.method or system.integrator
    a, b, h = system.time
    ode = assemble_explicit(dual_spencer(system.phi), params)
    traj = integrate(ode, system.init[0], system.init[1], (a, b), h, method)

    report = None
    if args.audit:
        try:
            dec = (
                system.declared_decomposition()
                if system.declared_split is not None
                else decompose(system.phi)
            )
            report = energy_audit(traj, dec, params)
        except (ReconstructionError, AdmissibilityError, AuditUnsupportedError):
            # the trajectory is still useful; land it before main reports the failure
            write_trajectory_csv(traj, args.out, None)
            print(f"wrote {args.out} ({len(traj.taus)} samples, no audit columns)")
            raise
        print(
            f"energy audit: max |rho| = {report.max_residual:.6e}, "
            f"rms = {report.rms_residual:.6e}, "
            f"energy drift {report.relative_drift:.6e}"
        )

    write_trajectory_csv(traj, args.out, report)
    print(f"wrote {args.out} ({len(traj.taus)} samples)")
    if traj.truncated:
        print("numeric failure: trajectory truncated (non-finite state); partial CSV written")
        return EXIT_NUMERIC

    if args.oracle:
        oracle_report = oracle_compare(system, method)
        print(f"max divergence {oracle_report.max_divergence:.6e}")
        if oracle_report.max_divergence > args.tol:
            print(
                f"FAIL oracle divergence {oracle_report.max_divergence:.3e} "
                f"exceeds tol {args.tol:.3e}"
            )
            return EXIT_VERIFICATION
    return EXIT_OK


def cmd_verify(args) -> int:
    seed_text = os.environ.get("MECH_SEED", str(DEFAULT_SEED))
    try:
        seed = int(seed_text)
    except ValueError:
        raise MechError(f"MECH_SEED must be an integer, got {seed_text!r}") from None
    checks = []
    system = None
    if args.target is None and not args.builtin_suite:
        raise MechError("verify needs a system file or --builtin-suite")
    if args.target is not None:
        system = _load_system(args.target)
        if system.declared_split is not None:
            checks.append(check_declared_split(system))
        if system.oracle_forces is not None and system.init and system.time:
            rep = oracle_compare(system)
            checks.append(
                CheckResult(
                    "oracle-equivalence",
                    rep.max_divergence <= ORACLE_TOL,
                    f"max divergence {rep.max_divergence:.3e}",
                )
            )
    checks += run_builtin_suites(seed)

    width = max(len(c.name) for c in checks)
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        suffix = f" (seed={c.seed})" if c.seed is not None else ""
        print(f"[{mark}] {c.name:<{width}}  {c.detail}{suffix}")
    if args.json:
        _write_json(args.json, _report_dict(system, None, None, checks))
        print(f"wrote {args.json}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def tolerance(text: str) -> float:
    """An argparse type: a finite float >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call. It holds no handler: ``main`` dispatches on ``command``."""
    parser = argparse.ArgumentParser(
        prog="jetmech",
        description=(
            "derive, decompose, simulate and verify non-conservative "
            "mechanical systems declared as dynamical one-forms"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="exact/anti-exact split of the dynamical form")
    p.add_argument("target", help=".mech file or preset name")
    p.add_argument("--mode", choices=("canonical", "declared"), default="canonical")
    p.add_argument("--json", help="write a JSON report here")

    p = sub.add_parser("derive", help="print the equations of motion")
    p.add_argument("target", help=".mech file or preset name")
    p.add_argument("--json", help="write a JSON report here")

    p = sub.add_parser("simulate", help="integrate and export a trajectory CSV")
    p.add_argument("target", help=".mech file or preset name")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--audit", action="store_true", help="append E, P, rho columns")
    p.add_argument("--oracle", action="store_true", help="compare against the newton oracle")
    p.add_argument("--tol", type=tolerance, default=ORACLE_TOL, help="oracle divergence tolerance")
    p.add_argument("--method", choices=("rk4", "rkf45"), default=None)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("target", nargs="?", default=None, help=".mech file or preset name")
    p.add_argument("--builtin-suite", action="store_true", help="run suites on shipped presets")
    p.add_argument("--json", help="write a JSON report here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # The one map from an exception to an exit code, a message prefix and a
    # stream. Verification and numeric failures print on stdout, next to the
    # "wrote ..." lines of the same run; usage and parse errors on stderr.
    try:
        # a bad output path fails before any work; a later failure leaves it empty
        for path in (vars(args).get("out"), vars(args).get("json")):
            if path:
                with open(path, "w"):
                    pass
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReconstructionError as exc:
        print(f"FAIL {exc}")
        return EXIT_VERIFICATION
    except (SingularMassError, AdmissibilityError, AuditUnsupportedError) as exc:
        print(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (MechError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect, never a verification verdict
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
