import argparse
import hashlib
import json
import math
import re
import time
from pathlib import Path

import pytest

from jetmech import cli, dynamics, spencer
from jetmech.cli import main
from jetmech.dsl import MAX_POWER, PRESETS, format_expr, parse_system
from jetmech.formcalc import format_one_form
from jetmech.symexpr import MAX_COEFFICIENT_DIGITS, MAX_TERM_PRODUCT, ZERO, Expr, coord
from jetmech.verify import DEFAULT_SEED, check_split_invariance

DAMPED = """
system "lab" {
  parameter m = 1
  parameter k = 1
  parameter b = 0.1
  coordinate x
  signal f = sinusoid(0.3, 1.2, 0)
  force x: -k*x - b*x' + sig(f)
  momentum x: m*x'
  lagrangian: m*x'^2/2 - k*x^2/2
  antiexact x: -b*x' + sig(f)
  oracle x: -k*x - b*x' + sig(f)
  init x = 1, x' = 0
  time 0 .. 2 step 1e-3
}
"""

BAD_SPLIT = """
system "badsplit" {
  parameter m = 1
  coordinate x
  force x: x
  momentum x: m*x'
  lagrangian: m*x'^2/2
  init x = 1, x' = 0
  time 0 .. 1 step 1e-2
}
"""

CORRUPTED_ORACLE = """
system "corrupt" {
  parameter m = 1
  parameter k = 1
  coordinate x
  force x: -(k + 1)*x
  momentum x: m*x'
  oracle x: -k*x
  init x = 1, x' = 0
  time 0 .. 2 step 1e-3
}
"""

# stiff enough that rk4 and rkf45 at step 1/10 integrate it very differently
STIFF_RKF45 = """
system "stiff" {
  parameter m = 1
  coordinate x
  force x: -1000*x
  momentum x: m*x'
  oracle x: -1000*x - 1/1000000000*x
  init x = 1, x' = 0
  time 0 .. 2 step 1/10
  integrator rkf45
}
"""

MASSLESS = 'system "nomass" { parameter k = 1; coordinate x; force x: -k*x }'

# the derived law is regular (momentum x'), the newton oracle's mass is zero
SINGULAR_ORACLE_MASS = """
system "m0" {
  parameter m = 0
  parameter k = 1
  coordinate x
  force x: -k*x
  momentum x: x'
  oracle x: -k*x
  init x = 1, x' = 0
  time 0 .. 1 step 1e-2
}
"""

DEEP_PARENS = 'system "deep" { coordinate x; force x: ' + "(" * 3000 + "x" + ")" * 3000 + " }"

# written in Latin-1, whose 'é' is not UTF-8
LATIN1 = 'system "latin1" { parameter é = 1; coordinate x }'


# a forced oscillator with one statement per kind of value that becomes a float
FLOAT_RANGE = """system "big" {{
  parameter m = 1
  {parameter}
  coordinate x
  {signal}
  {force}
  {init}
  {time}
}}
"""
FLOAT_RANGE_DEFAULTS = {
    "parameter": "parameter k = 1",
    "signal": "signal f = sinusoid(1, 1, 0)",
    "force": "force x: -k*x + sig(f)",
    "init": "init x = 1, x' = 0",
    "time": "time 0 .. 1 step 1/10",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out + out.err


class TestDerive:
    def test_duffing_preset(self, capsys):
        code, out = run(capsys, "derive", "duffing")
        assert code == 0
        assert "m*x'' = -a*x^3 - b*x'" in out
        assert "a*x^3 + b*x' + m*x'' = 0" in out

    def test_vanderpol_preset(self, capsys):
        code, out = run(capsys, "derive", "vanderpol")
        assert code == 0
        assert "m*x'' = -k*x - b0*x^2*x' + b0*x'" in out

    def test_damped_driven(self, capsys, tmp_path):
        path = tmp_path / "lab.mech"
        path.write_text(DAMPED)
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert "k*x + b*x' + m*x'' - sig(f) = 0" in out

    def test_massless_warns_but_succeeds(self, capsys, tmp_path):
        path = tmp_path / "m.mech"
        path.write_text(MASSLESS)
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert "mass matrix singular" in out


# momentum and force clauses of one or two coordinates, a unit force law
CONSTANT_MASS = """system "mass" {{
  {params}
  coordinate x
  {coords}
  {clauses}
  init {init}
  time 0 .. 1 step 1/10
}}
"""


def constant_mass_file(tmp_path, params, momenta, two=False):
    coords = ("x", "y") if two else ("x",)
    clauses = [f"momentum {c}: {p}" for c, p in zip(coords, momenta)]
    clauses += [f"force {c}: -{c}" for c in coords]
    path = tmp_path / "mass.mech"
    path.write_text(CONSTANT_MASS.format(
        params="\n  ".join(f"parameter {name} = {value}" for name, value in params.items()),
        coords="coordinate y" if two else "",
        clauses="\n  ".join(clauses),
        init=", ".join([f"{c} = 1" for c in coords] + [f"{c}' = 0" for c in coords]),
    ))
    return path


class TestConstantMass:
    """``simulate`` and ``derive`` invert a constant mass the same way:
    ``derive`` prints its explicit rows exactly when ``simulate`` can run."""

    @pytest.mark.parametrize("momentum", ["m^2*x'", "m*k*x'"], ids=["overflow", "infinite"])
    def test_an_entry_beyond_the_float_range_is_usage_error(self, capsys, tmp_path, momentum):
        path = constant_mass_file(tmp_path, {"m": "1e200", "k": "1e200"}, [momentum])
        start = time.perf_counter()
        code = main(["simulate", str(path), "--out", str(tmp_path / "o.csv")])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: a mass matrix entry is beyond the float range"
        ]
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert out.splitlines()[-1] == (
            "warning: residuals left implicit: a mass matrix entry is beyond the float range"
        )

    def test_an_invertible_off_diagonal_mass_derives_explicit_rows(self, capsys, tmp_path):
        path = constant_mass_file(tmp_path, {"m": 2}, ["m*x' + y'", "x' + m*y'"], two=True)
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("explicit:")] == [
            "explicit: m*x'' + y'' = -x",
            "explicit: x'' + m*y'' = -y",
        ]
        assert "warning" not in out
        assert main(["simulate", str(path), "--out", str(tmp_path / "o.csv")]) == 0

    def test_a_mass_simulate_refuses_warns(self, capsys, tmp_path):
        path = constant_mass_file(tmp_path, {"m": "1e-13"}, ["m*x'"])
        assert main(["simulate", str(path), "--out", str(tmp_path / "o.csv")]) == 3
        capsys.readouterr()
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert out.splitlines()[-1] == (
            "warning: residuals left implicit: mass matrix singular "
            "(pivot 1.000e-13 below threshold) at constant mass matrix"
        )

    def test_a_parameter_the_mass_does_not_use_may_be_huge(self, capsys, tmp_path):
        path = constant_mass_file(tmp_path, {"m": 2, "q": "1e400"}, ["m*x'"])
        path.write_text(path.read_text().replace("force x: -x", "force x: -q*x"))
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert "explicit: m*x'' = -q*x" in out.splitlines()

    def test_a_divisor_takes_its_own_power(self, capsys, tmp_path):
        path = constant_mass_file(tmp_path, {"k": 1}, ["x'"])
        path.write_text(path.read_text().replace("force x: -x", "force x: -k*x/2^2"))
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert "explicit: x'' = -1/4*k*x" in out.splitlines()

    @staticmethod
    def diagonal_file(tmp_path, n: int):
        qs = [f"q{i}" for i in range(n)]
        lines = [f'system "diag{n}" {{', "  parameter m = 2"] + [f"  coordinate {q}" for q in qs]
        for q in qs:
            lines += [f"  force {q}: -{q}", f"  momentum {q}: m*{q}'"]
        lines += ["  init " + ", ".join(f"{q} = 1/10" for q in qs),
                  "  time 0 .. 1/10 step 1/100", "}"]
        path = tmp_path / f"diag{n}.mech"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("past", [1, 64])
    def test_a_mass_past_the_bound_emits_no_elimination(
        self, capsys, tmp_path, monkeypatch, past
    ):
        # its elimination source would grow as n^3: 4.4 MB at n = 60
        n = dynamics.MAX_MASS_COORDINATES + past
        path = self.diagonal_file(tmp_path, n)
        emitted = []
        real = dynamics._elimination
        monkeypatch.setattr(dynamics, "_elimination", lambda *a: emitted.append(real(*a)))
        start = time.perf_counter()
        code = main(["simulate", str(path), "--out", str(tmp_path / "o.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: system too large: a mass matrix of {n} coordinates exceeds "
            f"MAX_MASS_COORDINATES = {dynamics.MAX_MASS_COORDINATES}\n"
        )
        code, out = run(capsys, "derive", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines()[-1] == (
            f"warning: residuals left implicit: system too large: a mass matrix of {n} "
            f"coordinates exceeds MAX_MASS_COORDINATES = {dynamics.MAX_MASS_COORDINATES}"
        )
        assert emitted == []


class TestDecompose:
    def test_declared_split(self, capsys):
        code, out = run(capsys, "decompose", "damped_ho", "--mode", "declared")
        assert code == 0
        assert "L = -1/2*k*x^2 + 1/2*m*x'^2" in out
        assert "phi_a = (-b*x' + sig(f)) dx" in out
        assert "not closed" in out
        assert "dt^dx" in out and "dx^dx'" in out
        assert "reconstruction: exact" in out

    def test_exact_form(self, capsys):
        code, out = run(capsys, "decompose", "harmonic")
        assert code == 0
        assert "form is exact" in out

    def test_sinusoid_refused_in_canonical_mode(self, capsys):
        code, out = run(capsys, "decompose", "damped_ho", "--mode", "canonical")
        assert code == 3
        assert "polynomial signals" in out

    def test_declared_mode_without_split(self, capsys):
        code = main(["decompose", "duffing", "--mode", "declared"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == (
            "error: system 'duffing' declares no split: "
            "it needs lagrangian and antiexact clauses\n"
        )

    def test_json_report_schema(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _ = run(
            capsys, "decompose", "harmonic", "--json", str(report_path)
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["system"] == "harmonic"
        assert payload["lagrangian"] == "-1/2*k*x^2 + 1/2*m*x'^2"
        assert payload["anti_exact"] == {"F": ["0"], "Pi": ["0"]}
        assert payload["residuals"] == ["k*x + m*x''"]
        assert all({"name", "pass", "detail"} <= set(c) for c in payload["checks"])


class TestSimulate:
    def test_writes_csv_and_audits(self, capsys, tmp_path):
        out_csv = tmp_path / "traj.csv"
        path = tmp_path / "lab.mech"
        path.write_text(DAMPED)
        code, out = run(
            capsys, "simulate", str(path), "--out", str(out_csv), "--audit", "--oracle"
        )
        assert code == 0
        assert "max divergence" in out
        assert out_csv.read_text().splitlines()[0] == "tau,x0,v0,E,P,rho"

    def test_deterministic_output(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "simulate", "harmonic", "--out", str(a))
        run(capsys, "simulate", "harmonic", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_init_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "noinit.mech"
        path.write_text(
            'system "noinit" { parameter m = 1; coordinate x; force x: -x;\n'
            "time 0 .. 1 step 0.01 }"
        )
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "simulate requires init" in out

    def test_corrupted_oracle_fails_tolerance(self, capsys, tmp_path):
        path = tmp_path / "corrupt.mech"
        path.write_text(CORRUPTED_ORACLE)
        code, out = run(
            capsys,
            "simulate",
            str(path),
            "--out",
            str(tmp_path / "c.csv"),
            "--oracle",
        )
        assert code == 1
        assert "exceeds tol" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tmp_path, tol):
        out_csv = tmp_path / "t.csv"
        code = main(["simulate", "harmonic", "--out", str(out_csv), "--oracle", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in captured.err
        assert not out_csv.exists()

    def test_singular_mass_is_numeric_failure(self, capsys, tmp_path):
        path = tmp_path / "m.mech"
        path.write_text(
            'system "nomass" { parameter k = 1; coordinate x; force x: -k*x;\n'
            "init x = 1; time 0 .. 1 step 0.01 }"
        )
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "t.csv"))
        assert code == 3
        assert "singular" in out

    def test_singular_constant_mass_message(self, capsys, tmp_path):
        path = tmp_path / "m.mech"
        path.write_text(
            'system "nomass" { parameter k = 1; coordinate x; force x: -k*x;\n'
            "init x = 1; time 0 .. 1 step 0.01 }"
        )
        # the second run inverts with the solver the first one compiled
        for _ in range(2):
            assert main(["simulate", str(path), "--out", str(tmp_path / "t.csv")]) == 3
            captured = capsys.readouterr()
            assert captured.out == (
                "numeric failure: mass matrix singular (pivot 0.000e+00 below threshold) "
                "at constant mass matrix\n"
            )
            assert captured.err == ""

    def test_singular_state_reported_in_plain_floats(self, capsys, tmp_path):
        path = tmp_path / "s.mech"
        path.write_text(
            'system "vanishing" { parameter m = 1; parameter k = 1; coordinate x;\n'
            "force x: -k*x; momentum x: m*x*x'; init x = 0, x' = 1; time 0 .. 1 step 1e-2 }"
        )
        for method in ("rk4", "rkf45"):
            code = main([
                "simulate", str(path), "--out", str(tmp_path / "s.csv"), "--method", method,
            ])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == (
                "numeric failure: mass matrix singular (pivot 0.000e+00 below threshold) "
                "at t=0.0, x=[0.0], v=[1.0]\n"
            )
            assert captured.err == ""

    def test_blow_up_flagged_partial_csv(self, capsys, tmp_path):
        path = tmp_path / "b.mech"
        path.write_text(
            'system "blow" { parameter m = 1; coordinate x; force x: x\'^2;\n'
            "momentum x: m*x'; init x = 0, x' = 1; time 0 .. 2 step 1e-3 }"
        )
        out_csv = tmp_path / "b.csv"
        code, out = run(capsys, "simulate", str(path), "--out", str(out_csv))
        assert code == 3
        assert "truncated" in out
        assert out_csv.exists()
        assert len(out_csv.read_text().splitlines()) > 10

    @pytest.mark.parametrize(
        "force, init, grid, method, samples, reason",
        [
            # x'' = -t^400 x turns stiff past t = 1 and RK4 leaves the float range
            ("-t^400*x", "x = 1, x' = 0", "0 .. 10 step 1/10", "rk4", 15, "non-finite state"),
            # v' = v^2 blows up at t = 1, where v**2 raises OverflowError
            ("x'^2", "x = 0, x' = 1", "0 .. 2 step 1/1000", "rk4", 1003, "law overflow"),
            # RKF45 shrinks its step towards the same blow-up until it underflows
            ("x'^2", "x = 0, x' = 1", "0 .. 2 step 1/1000", "rkf45", 1000, "step underflow"),
        ],
    )
    def test_truncation_names_its_reason(
        self, capsys, tmp_path, force, init, grid, method, samples, reason
    ):
        path = tmp_path / "r.mech"
        path.write_text(
            f'system "r" {{ coordinate x; force x: {force}; momentum x: x\';\n'
            f"init {init}; time {grid} }}"
        )
        out_csv = tmp_path / "r.csv"
        code, out = run(capsys, "simulate", str(path), "--out", str(out_csv), "--method", method)
        assert code == 3
        assert out.splitlines() == [
            f"wrote {out_csv} ({samples} samples)",
            f"numeric failure: trajectory truncated ({reason}); partial CSV written",
        ]
        assert len(out_csv.read_text().splitlines()) == samples + 1

    HARMONIC = (
        'system "h" { coordinate x; force x: -x; momentum x: x\';\n'
        "init x = 1, x' = 0; time 0 .. 100 step 1 }"
    )

    def test_truncation_at_the_attempt_cap_names_it(self, capsys, tmp_path, monkeypatch):
        # every state is finite: the run only ran out of attempts
        monkeypatch.setattr(dynamics, "RKF45_MAX_ATTEMPTS", 100)
        path = tmp_path / "h.mech"
        path.write_text(self.HARMONIC)
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "h.csv"),
                        "--method", "rkf45")
        assert code == 3
        assert out.splitlines()[-1] == (
            "numeric failure: trajectory truncated (RKF45_MAX_ATTEMPTS reached); "
            "partial CSV written"
        )

    def test_truncation_of_a_short_resampled_grid_names_it(self, capsys, tmp_path, monkeypatch):
        # knots that end before the grid with no reason from the kernel; the
        # kernel's own stopping rule leaves no such gap, so the resampling
        # is cut short by hand
        real = dynamics._hermite_resample

        def short(*args):
            xs, vs = real(*args)
            return xs[:-1], vs[:-1]

        monkeypatch.setattr(dynamics, "_hermite_resample", short)
        path = tmp_path / "h.mech"
        path.write_text(self.HARMONIC)
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "h.csv"),
                        "--method", "rkf45")
        assert code == 3
        assert out.splitlines() == [
            f"wrote {tmp_path / 'h.csv'} (100 samples)",
            "numeric failure: trajectory truncated (resampled grid ends early); "
            "partial CSV written",
        ]

    def test_rkf45_ends_on_its_attempt_cap(self, capsys, tmp_path):
        # the step shrinks to resolve a sinusoid of angular frequency 1e300;
        # uncapped, the run accepts 365,086 knots, after more attempts than
        # RKF45_MAX_ATTEMPTS allows
        path = tmp_path / "fast.mech"
        path.write_text(
            'system "fast" { coordinate x; signal f = sinusoid(1, 1e300, 0);\n'
            "force x: sig(f); momentum x: x'; init x = 0, x' = 0;\n"
            "time 0 .. 1/100 step 1/1000 }"
        )
        out_csv = tmp_path / "fast.csv"
        assert main(["simulate", str(path), "--out", str(out_csv), "--method", "rkf45"]) == 3
        captured = capsys.readouterr()
        assert "partial CSV written" in captured.out and captured.err == ""
        assert 1 < len(out_csv.read_text().splitlines()) - 1 < 11

    @pytest.mark.parametrize(
        "force, init, code",
        [
            # the state overflows: the audit sees inf, the run is truncated
            ("-t^400*x", "x = 1, x' = 0", 3),
            # E = x'^2/2 is inf at every sample, its drift nan
            ("-x", "x = 1, x' = 1e200", 0),
        ],
    )
    def test_audit_beyond_the_float_range_warns_nothing(self, capsys, tmp_path, force, init, code):
        path = tmp_path / "a.mech"
        path.write_text(
            f'system "a" {{ coordinate x; force x: {force}; momentum x: x\';\n'
            f"init {init}; time 0 .. 10 step 1/10 }}"
        )
        assert main(["simulate", str(path), "--out", str(tmp_path / "a.csv"), "--audit"]) == code
        captured = capsys.readouterr()
        assert "energy audit: max |rho| = nan, rms = nan" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "force, momentum, init, samples, refusal",
        [
            # the law overflows on the first step, leaving too few samples to audit
            ("x^9", "x'", "x = 1e30", 1, "energy audit needs at least 3 samples"),
            # the state-dependent mass splits with dv components
            ("-x", "x*x'", "x = 1, x' = -10", 73,
             "energy audit requires an anti-exact part with zero dv components"),
        ],
        ids=["too-few-samples", "dv-components"],
    )
    def test_a_refused_audit_still_names_the_truncation(
        self, capsys, tmp_path, force, momentum, init, samples, refusal
    ):
        path = tmp_path / "t.mech"
        path.write_text(
            f'system "t" {{ coordinate x; force x: {force}; momentum x: {momentum};\n'
            f"init {init}; time 0 .. 3 step 1e-3 }}"
        )
        out_csv = tmp_path / "t.csv"
        assert main(["simulate", str(path), "--out", str(out_csv), "--audit"]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            f"wrote {out_csv} ({samples} samples, no audit columns)",
            "numeric failure: trajectory truncated (law overflow); partial CSV written",
            f"numeric failure: {refusal}",
        ]
        assert captured.err == ""
        assert len(out_csv.read_text().splitlines()) == samples + 1

    def test_audit_rms_of_a_blow_up_stays_finite(self, capsys, tmp_path):
        # rho**2 overflows while every |rho| is finite; the rms is the peak
        # times the rms of rho / peak
        path = tmp_path / "cube.mech"
        path.write_text(
            'system "cube" { coordinate x; force x: x^3; momentum x: x\';\n'
            "init x = 1; time 0 .. 3 step 1e-3 }"
        )
        out_csv = tmp_path / "cube.csv"
        assert main(["simulate", str(path), "--out", str(out_csv), "--audit"]) == 3
        out = capsys.readouterr().out.splitlines()
        rho = [float(row.split(",")[-1]) for row in out_csv.read_text().splitlines()[1:]]
        peak = max(map(abs, rho))
        rms = peak * math.sqrt(math.fsum((r / peak) ** 2 for r in rho) / len(rho))
        assert math.isfinite(rms) and rms < peak
        assert out[0].startswith(f"energy audit: max |rho| = {peak:.6e}, rms = {rms:.6e}, ")
        assert out[1:] == [
            f"wrote {out_csv} ({len(rho)} samples)",
            "numeric failure: trajectory truncated (law overflow); partial CSV written",
        ]

    @pytest.mark.parametrize("init, absolute", [("x = 1, x' = 0", False), ("x = 0, x' = 0", True)])
    def test_audit_drift_from_zero_energy_is_absolute(self, capsys, tmp_path, init, absolute):
        # from E(0) = 0 a relative drift would only divide by its 1e-300
        # floor, so the line gives max |E - E(0)| and names it absolute
        path = tmp_path / "ho.mech"
        path.write_text(PRESETS["damped_ho"].replace("init x = 1, x' = 0", f"init {init}"))
        out_csv = tmp_path / "ho.csv"
        assert main(["simulate", str(path), "--out", str(out_csv), "--audit"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        energies = [float(row.split(",")[3]) for row in out_csv.read_text().splitlines()[1:]]
        change = max(abs(e - energies[0]) for e in energies)
        assert (energies[0] == 0.0) == absolute
        if absolute:
            assert line.endswith(f", absolute energy drift {change:.6e}")
            assert 0.0 < change < 1.0
        else:
            assert line.endswith(f", energy drift {change / abs(energies[0]):.6e}")

    def test_negative_parameter_squared(self, capsys, tmp_path):
        # (-2)^2 = 4 is the stiffness: x(t) = cos 2t
        path = tmp_path / "neg.mech"
        path.write_text(
            'system "negk" { parameter k = -2; coordinate x; force x: -k^2*x;\n'
            "momentum x: x'; init x = 1, x' = 0; time 0 .. 1 step 1/10 }"
        )
        out_csv = tmp_path / "neg.csv"
        code, _ = run(capsys, "simulate", str(path), "--out", str(out_csv))
        assert code == 0
        tau, x, _ = map(float, out_csv.read_text().splitlines()[-1].split(","))
        assert tau == 1.0
        assert abs(x - math.cos(2.0)) < 1e-4


class TestOutputDigests:
    """The CSV bytes of three preset runs (RKF45 on a law without time
    terms and on one with them) and four JSON reports, pinned by sha256. CI
    checks the same digests on the installed console script."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("damped_ho", "--audit", "--oracle"),
                "3988e920cae5cfd1ac23cda5d0b295c952f7834b04906d1a6221a33d489cf91a",
            ),
            (
                ("duffing", "--method", "rkf45"),
                "1927633ee09867900c49fa5e75a39cd4f4539196055fae2792e4f6db381cdb77",
            ),
            (
                ("damped_ho", "--method", "rkf45"),
                "b1186c36c3ecd4c33f85857707623eeebbe121eeb581431220e9c346c7afa9ba",
            ),
        ],
    )
    def test_csv_digest(self, capsys, tmp_path, argv, digest):
        out_csv = tmp_path / "out.csv"
        code, _ = run(capsys, "simulate", argv[0], "--out", str(out_csv), *argv[1:])
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("decompose", "damped_ho", "--mode", "declared"),
                "8d4f6c2408341963910435a056e8da80056c492f661b731a4f160c61b5de8d53",
            ),
            (
                ("decompose", "duffing"),
                "51320a7ac9f853a76548bccdf5f4cd266f671cd8202c41b32bc0e0a79046177e",
            ),
            (
                ("derive", "vanderpol"),
                "e53a5a2ff6fbd7e4d5007009d6f7bfc9714c2323a1e496d90cb04e22c0f5f988",
            ),
            (
                ("verify", "damped_ho", "--builtin-suite"),
                "cc9e3f4316d57b692c8d9f38b931816307301b7e06245e7c555ff98ee02464c0",
            ),
        ],
        ids=["decompose-declared", "decompose", "derive", "verify"],
    )
    def test_json_digest(self, capsys, tmp_path, monkeypatch, argv, digest):
        monkeypatch.setenv("MECH_SEED", "7")
        report = tmp_path / "report.json"
        code, _ = run(capsys, *argv, "--json", str(report))
        assert code == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestVerify:
    def test_builtin_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--builtin-suite")
        assert code == 0
        for name in (
            "cochain-contraction",
            "el-equivalence",
            "split-invariance",
            "first-variation",
            "spencer-residual",
        ):
            assert f"[PASS] {name}" in out
        assert "seed=" in out

    def test_split_disagreement_is_a_failing_check(self, capsys, monkeypatch):
        # a wrong variational derivative makes every split assemble wrong
        # residuals; the suite reports that as its own failure, with a seed
        real = spencer.variational_derivative

        def skewed(lagrangian, n=None):
            return tuple(r + 1 for r in real(lagrangian, n=n))

        monkeypatch.setattr(spencer, "variational_derivative", skewed)
        result = check_split_invariance(DEFAULT_SEED)
        assert not result.passed
        assert result.seed == DEFAULT_SEED + 20_000
        assert "split assembly disagrees" in result.detail
        code, out = run(capsys, "verify", "--builtin-suite")
        assert code == 1
        assert re.search(r"\[FAIL\] split-invariance .*\(seed=\d+\)", out)
        for name in ("cochain-contraction", "el-equivalence", "first-variation",
                     "spencer-residual"):
            assert f"[PASS] {name}" in out

    def test_bad_split_file_fails_with_residual(self, capsys, tmp_path):
        path = tmp_path / "bad.mech"
        path.write_text(BAD_SPLIT)
        code, out = run(capsys, "verify", str(path))
        assert code == 1
        assert "split-reconstruction" in out
        assert "split reconstruction residual" in out
        assert "(x) dx" in out

    def test_oracle_check_included(self, capsys, tmp_path):
        path = tmp_path / "lab.mech"
        path.write_text(DAMPED)
        code, out = run(capsys, "verify", str(path))
        assert code == 0
        assert "[PASS] oracle-equivalence" in out

    def test_oracle_check_runs_under_the_file_integrator(self, capsys, tmp_path):
        # under rk4 at this step the stiff law's two trajectories part by
        # 6e-3; under the file's rkf45 they agree as simulate --oracle finds
        path = tmp_path / "stiff.mech"
        path.write_text(STIFF_RKF45)
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "s.csv"), "--oracle")
        assert code == 0
        assert "max divergence 9.321514e-10" in out
        code, out = run(capsys, "verify", str(path))
        assert code == 0
        assert re.search(r"\[PASS\] oracle-equivalence +max divergence 9\.322e-10", out)

    def test_truncated_oracle_check_is_a_numeric_failure(self, capsys, tmp_path, integrations):
        # the derived law blows up near t = 1.85; its divergence from the
        # oracle on the part before is no verdict on the whole grid
        path = tmp_path / "blow2.mech"
        path.write_text(
            'system "blow2" { parameter m = 1; coordinate x; force x: x^3; momentum x: m*x\'; '
            "oracle x: x^3 + 1/1000000*x; init x = 1, x' = 0; time 0 .. 3 step 1e-3 }"
        )
        line = "numeric failure: trajectory truncated (law overflow)"
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "b.csv"), "--oracle")
        assert code == 3
        assert out.splitlines()[-1] == line + "; partial CSV written"
        code, out = run(capsys, "verify", str(path))
        assert code == 3
        assert out.splitlines() == [line]
        assert integrations == ["rk4", "rk4"]  # simulate's run, then verify's derived run

    def test_truncated_oracle_is_a_numeric_failure(self, capsys, tmp_path, integrations):
        # the oracle's x^40 overflows in its first step while the derived law
        # runs the whole grid; a divergence over the one shared sample would
        # read 0
        path = tmp_path / "ot.mech"
        path.write_text(
            'system "ot" { parameter m = 1; coordinate x; force x: -x; momentum x: m*x\'; '
            "oracle x: -x + 1/1000000*x^40; init x = 10, x' = 0; time 0 .. 10 step 1e-3 }"
        )
        line = "numeric failure: oracle trajectory truncated (law overflow)"
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "o.csv"), "--oracle")
        assert code == 3
        assert out.splitlines() == [f"wrote {tmp_path / 'o.csv'} (10001 samples)", line]
        code, out = run(capsys, "verify", str(path))
        assert code == 3
        assert out.splitlines() == [line]
        assert integrations == ["rk4", "rk4", "rk4", "rk4"]

    def test_a_nan_oracle_divergence_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "oracle_compare", lambda *args: dynamics.OracleReport(math.nan))
        path = tmp_path / "lab.mech"
        path.write_text(DAMPED)
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "d.csv"), "--oracle")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL oracle divergence nan exceeds tol 1.000e-08"
        code, out = run(capsys, "verify", str(path))
        assert code == 1
        assert re.search(r"^\[FAIL\] oracle-equivalence +max divergence nan$", out, re.M)

    def test_empty_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "empty.mech"
        path.write_text("")
        code, out = run(capsys, "verify", str(path))
        assert code == 2
        assert "parse error" in out

    def test_requires_target_or_builtin(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 2

    def test_seed_env_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("MECH_SEED", "777")
        code, out = run(capsys, "verify", "--builtin-suite")
        assert code == 0
        assert "seed=777" in out


@pytest.fixture
def integrations(monkeypatch):
    """The method of every ``dynamics.integrate`` call, made through cli's
    name for it or dynamics' own."""
    calls = []
    real = dynamics.integrate

    def counted(ode, x0, v0, interval, h, method="rk4"):
        calls.append(method)
        return real(ode, x0, v0, interval, h, method)

    monkeypatch.setattr(dynamics, "integrate", counted)
    monkeypatch.setattr(cli, "integrate", counted)
    return calls


class TestOracleIntegrations:
    """An oracle whose generated law is the derived one is not integrated."""

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_simulate_integrates_once(self, capsys, tmp_path, integrations, name, method):
        out_csv = str(tmp_path / "p.csv")
        code, out = run(capsys, "simulate", name, "--out", out_csv, "--oracle", "--method", method)
        assert code == 0
        assert "max divergence 0.000000e+00" in out
        assert integrations == [method]

    def test_corrupted_oracle_is_integrated(self, capsys, tmp_path, integrations):
        path = tmp_path / "corrupt.mech"
        path.write_text(CORRUPTED_ORACLE)
        code, out = run(capsys, "simulate", str(path), "--out", str(tmp_path / "c.csv"), "--oracle")
        assert code == 1
        assert "exceeds tol" in out
        assert integrations == ["rk4", "rk4"]

    def test_verify_oracle_check_integrates_nothing(self, capsys, integrations):
        code, out = run(capsys, "verify", "damped_ho")
        assert code == 0
        assert re.search(r"\[PASS\] oracle-equivalence +max divergence 0\.000e\+00", out)
        # the two laws are one source, so neither is integrated; the suites
        # integrate through verify's own name, which is not counted
        assert integrations == []


class TestUsage:
    def test_unknown_target(self, capsys):
        code, out = run(capsys, "derive", "not-a-system")
        assert code == 2
        assert "no such file or preset" in out

    def test_parse_error_position_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.mech"
        path.write_text('system "oops" { coordinate x; force x: x + }')
        code, out = run(capsys, "derive", str(path))
        assert code == 2
        assert "line 1" in out and "col 44" in out

    def test_unknown_subcommand(self, capsys):
        code, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--out"), ("derive", "--json"), ("decompose", "--json"),
         ("verify", "--json")],
    )
    @pytest.mark.parametrize("alias", [False, True], ids=["same", "alias"])
    def test_an_output_path_naming_the_input_is_refused(
        self, capsys, tmp_path, command, flag, alias
    ):
        path = tmp_path / "sys.mech"
        path.write_text(DAMPED)
        (tmp_path / "sub").mkdir()
        out = tmp_path / "sub" / ".." / "sys.mech" if alias else path
        start = time.perf_counter()
        code = main([command, str(path), flag, str(out)])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: output path {out} is the input file\n"
        assert path.read_text() == DAMPED


class TestMethodSelection:
    def test_rkf45_flag(self, capsys, tmp_path):
        out_csv = tmp_path / "t45.csv"
        code, out = run(capsys, "simulate", "harmonic", "--out", str(out_csv), "--method", "rkf45")
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 10002

    def test_audit_failure_still_writes_csv(self, capsys, tmp_path):
        # canonical split of the constant-forced oscillator has dv components
        path = tmp_path / "dv.mech"
        path.write_text(
            'system "dv" { parameter m = 1; parameter k = 1; parameter b = 0.5;\n'
            "coordinate x; force x: -k*x - b*x'; momentum x: m*x';\n"
            "init x = 1; time 0 .. 1 step 0.01 }"
        )
        out_csv = tmp_path / "dv.csv"
        code, out = run(capsys, "simulate", str(path), "--out", str(out_csv), "--audit")
        assert code == 3
        assert "dv components" in out
        assert out_csv.exists()


class TestExitTable:
    """One case per row of main's exception table: exit code, prefix, stream."""

    @pytest.mark.parametrize(
        "argv, code, prefix, stream",
        [
            (["decompose", "{badsplit}", "--mode", "declared"], 1, "FAIL ", "out"),
            (["decompose", "damped_ho"], 3, "numeric failure: ", "out"),
            (["simulate", "{m0}", "--out", "{csv}", "--oracle"], 3, "numeric failure: ", "out"),
            (["verify", "{m0}"], 3, "numeric failure: ", "out"),
            (["derive", "not-a-preset"], 2, "error: ", "err"),
            (["derive", "{deep}"], 2, "parse error: ", "err"),
            (["derive", "{latin1}"], 2, "error: 'utf-8' codec can't decode", "err"),
            (["simulate", "harmonic", "--out", "{missing}/t.csv"], 2,
             "error: [Errno 2] No such file or directory", "err"),
            (["simulate", "harmonic", "--audit", "--out", "{missing}/t.csv"], 2,
             "error: [Errno 2] No such file or directory", "err"),
            (["derive", "harmonic", "--json", "{missing}/r.json"], 2,
             "error: [Errno 2] No such file or directory", "err"),
            (["MECH_SEED=abc", "verify", "--builtin-suite"], 2,
             "error: MECH_SEED must be an integer, got 'abc'", "err"),
            (["derive", "harmonic"], 4, "internal error: RuntimeError: planted defect", "err"),
        ],
        ids=[
            "reconstruction", "admissibility", "singular-oracle-simulate",
            "singular-oracle-verify", "unknown-preset", "nested-parentheses",
            "non-utf8-file", "output-in-missing-directory",
            "audited-output-in-missing-directory", "json-in-missing-directory", "non-integer-seed",
            "internal-error",
        ],
    )
    def test_row(self, capsys, monkeypatch, tmp_path, argv, code, prefix, stream):
        if code == cli.EXIT_INTERNAL:
            # no shipped input reaches an unmapped exception; plant one
            def crash(args):
                raise RuntimeError("planted\ndefect")

            monkeypatch.setattr(cli, "cmd_derive", crash)
        if argv[0].startswith("MECH_SEED="):
            monkeypatch.setenv("MECH_SEED", argv[0].partition("=")[2])
            argv = argv[1:]
        paths = {"csv": str(tmp_path / "t.csv"), "missing": str(tmp_path / "missing")}
        for name, text, encoding in (
            ("badsplit", BAD_SPLIT, "utf-8"), ("m0", SINGULAR_ORACLE_MASS, "utf-8"),
            ("deep", DEEP_PARENS, "utf-8"), ("latin1", LATIN1, "latin-1"),
        ):
            paths[name] = str(tmp_path / f"{name}.mech")
            (tmp_path / f"{name}.mech").write_text(text, encoding=encoding)
        assert main([arg.format(**paths) for arg in argv]) == code
        captured = capsys.readouterr()
        printed, other = (
            (captured.out, captured.err) if stream == "out" else (captured.err, captured.out)
        )
        assert printed.splitlines()[-1].startswith(prefix)
        assert other == ""


@pytest.fixture
def fresh_parser():
    """Start and leave the test with no parser built in this process."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser")
class TestSharedParser:
    """main() builds its parser on the first call and reuses it."""

    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert run(capsys, "derive", "harmonic")[0] == 0
            assert built == ["jetmech"] + [
                f"jetmech {name}" for name in ("decompose", "derive", "simulate", "verify")
            ]

    def test_handler_rebound_after_a_call_is_used(self, capsys, monkeypatch):
        assert run(capsys, "derive", "harmonic")[0] == 0
        targets = []

        def planted(args):
            targets.append(args.target)
            return cli.EXIT_VERIFICATION

        monkeypatch.setattr(cli, "cmd_derive", planted)
        assert run(capsys, "derive", "duffing") == (cli.EXIT_VERIFICATION, "")
        assert targets == ["duffing"]

    def test_usage_error_and_help_leave_no_trace(self, capsys):
        assert main(["simulate", "harmonic"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --out" in captured.err
        assert main(["--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: jetmech ")
        assert main(["derive", "harmonic"]) == cli.EXIT_OK
        after = capsys.readouterr()
        cli.build_parser.cache_clear()
        assert main(["derive", "harmonic"]) == cli.EXIT_OK
        assert after == capsys.readouterr()
        assert after.out.startswith("k*x + m*x'' = 0\n")


class TestFloatRange:
    """Exact values beyond the float range end in exit 2, not an internal error."""

    @pytest.mark.parametrize(
        "slot, statement, message",
        [
            ("parameter", "parameter k = 1e400", "error: parameter 'k' is beyond the float range"),
            ("init", "init x = 1e400, x' = 0",
             "parse error: line 7, col 12: number beyond the float range"),
            ("time", "time 0 .. 1e400 step 1e395",
             "parse error: line 8, col 13: number beyond the float range"),
            ("signal", "signal f = sinusoid(1e400, 1, 0)",
             "error: number 1.000e+400 is beyond the float range"),
            ("force", "force x: -1e400*x + sig(f)",
             "error: number -1.000e+400 is beyond the float range"),
        ],
        ids=["parameter", "init", "time", "signal", "coefficient"],
    )
    def test_simulate_is_usage_error(self, capsys, tmp_path, slot, statement, message):
        path = tmp_path / "big.mech"
        path.write_text(FLOAT_RANGE.format(**{**FLOAT_RANGE_DEFAULTS, slot: statement}))
        code = main(["simulate", str(path), "--out", str(tmp_path / "big.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [message]


class TestExactBounds:
    """Powers and coefficients past their named bounds end in exit 2 at once,
    never in an internal error from turning a huge integer into text."""

    HEAD = 'system "big" { parameter m = 1; coordinate x; force x: '
    POWER = f"power beyond MAX_POWER = {MAX_POWER}"
    COEFFICIENT = f"coefficient beyond MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} digits"

    @pytest.mark.parametrize(
        "command, force, at, message",
        [
            ("derive", "-10^5000*x", "5000", POWER),
            ("derive", "-(10^400*x+1)^11", "^11", COEFFICIENT),
            ("decompose", "-(10^400*x+1)^11", "^11", COEFFICIENT),
            ("derive", "-2^1e400*x", "1e400", POWER),
            ("derive", "-1" + "0" * 1500 + "*x", None, COEFFICIENT),
        ],
        ids=["literal-power", "expanded-power-derive", "expanded-power-decompose",
             "power-beyond-bound", "rendered-coefficient"],
    )
    def test_exit_2_within_a_second(self, capsys, tmp_path, command, force, at, message):
        path = tmp_path / "big.mech"
        path.write_text(self.HEAD + force + " }")
        start = time.perf_counter()
        assert main([command, str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        if at is None:
            # past the parser's checks, the renderer refuses it
            expected = f"error: {message}"
        else:
            col = len(self.HEAD) + force.index(at) + 1
            expected = f"parse error: line 1, col {col}: {message}"
        assert captured.err.splitlines() == [expected]
        assert "Traceback" not in captured.out

    def test_a_long_sum_of_fractions_stops_at_its_crossing_term(self, capsys, tmp_path):
        # x/p^100 over the first 1,200 odd primes: each + widens the common
        # denominator, which crosses the bound long before the last term
        odd = range(3, 10_000, 2)
        primes = [p for p in odd if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
        force = " + ".join(f"x/{p}^100" for p in primes[:1200])
        path = tmp_path / "primes.mech"
        path.write_text(self.HEAD + force + " }")
        start = time.perf_counter()
        assert main(["derive", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("parse error: line 1, col ") and line.endswith(self.COEFFICIENT)
        col = int(line.split("col ")[1].split(":")[0])
        assert (self.HEAD + force)[col - 1] == "+"
        assert captured.out == ""

    def test_coefficients_at_the_bound_are_printed(self, capsys, tmp_path):
        path = tmp_path / "edge.mech"
        path.write_text('system "edge" { parameter m = 1; coordinate x; force x: -10^999*x }')
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert f"{10**999}*x" in out


class TestLongExpressions:
    def test_five_thousand_term_sum_derives(self, capsys, tmp_path):
        text = "0" + "".join(
            f" {'-' if k % 2 else '+'} {k % 7}*x^{k % 3}" for k in range(5000)
        )
        source = f'system "long" {{ parameter m = 1; coordinate x; force x: {text} }}'
        path = tmp_path / "long.mech"
        path.write_text(source)
        code, out = run(capsys, "derive", str(path))
        assert code == 0
        assert "m*x''" in out
        expected = ZERO
        for k in range(5000):
            term = (k % 7) * Expr.var(coord(0)) ** (k % 3)
            expected = expected - term if k % 2 else expected + term
        assert parse_system(source).phi.F == (expected,)

    def test_a_four_thousand_term_polynomial_derives_in_linear_time(self, capsys, tmp_path):
        # distinct monomials: the running sum of each + holds every term so
        # far, so summing link by link would take quadratic time
        text = " + ".join(f"{i}*x^{i % 40}*y^{i // 40}" for i in range(1, 4001))
        source = (
            'system "poly" { parameter m = 1; coordinate x; coordinate y; '
            f"force x: {text}; force y: -y }}"
        )
        path = tmp_path / "poly.mech"
        path.write_text(source)
        start = time.perf_counter()
        code, out = run(capsys, "derive", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "explicit: m*y'' = -y" in out.splitlines()
        x, y = (Expr.var(coord(i)) for i in range(2))
        expected = {(x ** (i % 40) * y ** (i // 40)).terms[0][0]: i for i in range(1, 4001)}
        assert dict(parse_system(source).phi.F[0].terms) == expected

    def test_nested_squares_hit_the_term_product_bound(self, capsys, tmp_path):
        # each level squares the polynomial: 12 levels would need 2049^2
        # term products in the last square alone
        text = "x + 1"
        for _ in range(12):
            text = f"k*({text})^2"
        path = tmp_path / "squares.mech"
        path.write_text(
            f'system "squares" {{ parameter m = 1; parameter k = 1; coordinate x; force x: {text} }}'
        )
        start = time.perf_counter()
        assert main(["derive", str(path)]) == 2
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expression too large: ")
        assert f"MAX_TERM_PRODUCT = {MAX_TERM_PRODUCT}" in captured.err

    @staticmethod
    def state_mass_system(n: int) -> str:
        # a full mass matrix (2 + q_i^2) on the diagonal, 1/(10+j) elsewhere
        qs = [f"q{i}" for i in range(n)]
        lines = [f'system "chain{n}" {{'] + [f"  coordinate {q}" for q in qs]
        for q in qs:
            momentum = f"(2 + {q}^2)*{q}'" + "".join(
                f" + {p}'/{10 + j}" for j, p in enumerate(qs) if p != q
            )
            lines += [f"  force {q}: -{q}", f"  momentum {q}: {momentum}"]
        lines += ["  init " + ", ".join(f"{q} = 1/10" for q in qs),
                  "  time 0 .. 1/10 step 1/100", "}"]
        return "\n".join(lines) + "\n"

    def test_state_dependent_mass_past_the_cap_exits_2(self, capsys, tmp_path):
        cap = dynamics.MAX_MASS_COORDINATES
        path = tmp_path / "chain.mech"
        path.write_text(self.state_mass_system(cap + 1))
        start = time.perf_counter()
        code = main(["simulate", str(path), "--out", str(tmp_path / "chain.csv")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: system too large: a mass matrix of {cap + 1} "
            f"coordinates exceeds MAX_MASS_COORDINATES = {cap}\n"
        )
        # at the cap the law is emitted; its loops are compiled only when run
        system = parse_system(self.state_mass_system(cap))
        ode = dynamics.assemble_explicit(spencer.dual_spencer(system.phi), system.param_values())
        assert ode.n == cap

    @pytest.mark.parametrize("too_large_first", [True, False])
    def test_first_error_in_a_clause_is_reported(self, capsys, tmp_path, too_large_first):
        # a product too large to expand and an undeclared name in one clause:
        # whichever comes first in the text is the error
        squares = "x + 1"
        for _ in range(12):
            squares = f"k*({squares})^2"
        clause = f"{squares} + q" if too_large_first else f"q + {squares}"
        head = 'system "order" { parameter m = 1; parameter k = 1; coordinate x; force x: '
        path = tmp_path / "order.mech"
        path.write_text(head + clause + " }")
        assert main(["derive", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if too_large_first:
            assert captured.err.startswith("error: expression too large: ")
        else:
            col = len(head) + 1
            assert captured.err == f"parse error: line 1, col {col}: undeclared symbol 'q'\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected stdout lines) of each ``$ jetmech ...`` example in README."""
    examples, expected = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ jetmech "):
            expected = []
            examples.append((line.split()[2:], expected))
        elif not line.strip() or line.startswith("```"):
            expected = None
        elif expected is not None:
            expected.append(line)
    return examples


class TestReadmeExamples:
    def test_stdout_matches(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # the simulate example writes traj.csv
        examples = readme_examples()
        assert [argv[0] for argv, _ in examples] == ["derive", "decompose", "simulate"]
        for argv, expected in examples:
            assert main(argv) == 0, argv
            printed = capsys.readouterr().out.splitlines()
            assert len(printed) == len(expected), argv
            for line, want in zip(printed, expected):
                # a trailing '...' stands for any tail
                if want.endswith("..."):
                    assert line.startswith(want[:-3]), line
                else:
                    assert line == want


def readme_library_block():
    """The source of README's ```python block."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_library_block_runs_as_its_comments_say():
    block = readme_library_block()
    namespace = {"format_expr": format_expr, "format_one_form": format_one_form}
    exec(block, namespace)  # noqa: S102 - the README's own example
    dec, eom, traj = namespace["dec"], namespace["eom"], namespace["traj"]
    assert format_expr(dec.lagrangian) == "-1/2*b*x*x' - 1/2*k*x^2 + 1/2*m*x'^2"
    assert format_one_form(dec.anti_exact) == "(-1/2*b*x') dx + (1/2*b*x) dx'"
    assert [format_expr(r) for r in eom.residuals] == ["-k*x - b*x' - m*x''"]
    assert traj.xs.shape == (10_001, 1) and traj.taus[-1] == 10.0
    # each '# <call>: <text>' comment names what its call renders
    claims = [line[2:].split(": ", 1) for line in block.splitlines() if line.startswith("# ")]
    assert len(claims) == 3
    for call, text in claims:
        assert eval(call, namespace) == text, call  # noqa: S307
