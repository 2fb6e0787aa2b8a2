import argparse
import json
import re
import time
from pathlib import Path

import pytest

from jetmech import cli, spencer
from jetmech.cli import main
from jetmech.dsl import format_expr, parse_system
from jetmech.formcalc import format_one_form
from jetmech.symexpr import MAX_TERM_PRODUCT, ZERO, Expr, coord
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
        code, out = run(capsys, "decompose", "duffing", "--mode", "declared")
        assert code == 2

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
