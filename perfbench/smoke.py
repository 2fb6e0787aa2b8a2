"""Smoke test of the benchmark at tiny size.

Usage (from the root of a jetmech checkout): python3 perfbench/smoke.py

For each workload it runs ``run.py --scale tiny`` with and without
tracing and checks that the last line is a correct result carrying every
metric of BENCHMARK.json with its unit. It then corrupts a reference of
each kind and checks that the harness rejects the real outputs against it,
and checks that the benchmark refuses to run outside a checkout. Exits 0
when every check holds. The file is not named test_*.py, so the repo's
pytest suite does not collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import references
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_SECONDS = "1"


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", TINY_SECONDS, "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(workload: str, trace: int, spec: dict) -> list:
    proc = run_tiny(workload, trace)
    problems = []
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: not correct: {proc.stdout[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"] or \
                not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{workload} trace={trace}: bad metric {m['name']}: {entry}")
        elif trace == 0 and not entry["value"] > 0:
            problems.append(f"{workload}: end-to-end metric {m['name']} is not positive")
    if trace == 1 and workload == "presets-sim":
        oracle_jobs = sum(1 for j in workloads.build(workload, 7, "tiny").jobs
                          if "--oracle" in j.argv)
        if got["dynamics.integrate-rk4.calls"]["value"] != 3 * oracle_jobs:
            problems.append("presets-sim: expected 3 RK4 integrations per --oracle job")
    return problems


def _corrupt_system(system):
    """The same system with its first force term's sign flipped."""
    force = ("-(" + system.force[0] + ")",) + system.force[1:]
    return dataclasses.replace(system, force=force)


def check_corrupted_references(tmp: Path) -> list:
    """Real jetmech outputs must fail against a corrupted reference."""
    problems = []
    sys.path.insert(0, str(ROOT / "src"))
    from jetmech.cli import main

    tmp.mkdir(parents=True)
    law = workloads.PRESET_LAWS["harmonic"]
    csv = tmp / "harmonic.csv"
    symbolic = workloads.build("symbolic", 7, "tiny")
    system = symbolic.jobs[0].check[1]
    mech = tmp / "sym.mech"
    mech.write_text(system.to_mech(), encoding="utf-8")
    report = tmp / "verify.json"
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            main(["simulate", "harmonic", "--out", str(csv)]),
            main(["derive", str(mech), "--json", str(tmp / "der.json")]),
            main(["decompose", str(mech), "--json", str(tmp / "dec.json")]),
            main(["verify", "harmonic", "--builtin-suite", "--json", str(report)]),
        ]
    if codes != [0, 0, 0, 0]:
        return [f"jetmech jobs for the corruption check exited {codes}"]

    good = references.reference_trajectory(law)
    if not references.check_trajectory(csv, law, "rk4", good)[0]:
        problems.append("trajectory check rejects a correct trajectory")
    bad_law = dataclasses.replace(law, params={"m": 1, "k": 1.0001})
    bad = references.reference_trajectory(bad_law)
    if references.check_trajectory(csv, law, "rk4", bad)[0]:
        problems.append("trajectory check accepts a corrupted reference")

    for command, out in (("derive", "der.json"), ("decompose", "dec.json")):
        form = references.PolynomialForm(system)
        if not references.check_symbolic(tmp / out, form, command)[0]:
            problems.append(f"{command} check rejects a correct report")
        corrupted = references.PolynomialForm(_corrupt_system(system))
        if references.check_symbolic(tmp / out, corrupted, command)[0]:
            problems.append(f"{command} check accepts a corrupted reference")

    expected = workloads.VERIFY_CHECKS
    if not references.check_verify_report(report, expected)[0]:
        problems.append("verify check rejects a passing report")
    data = json.loads(report.read_text(encoding="utf-8"))
    data["checks"][-1]["pass"] = False
    report.write_text(json.dumps(data), encoding="utf-8")
    if references.check_verify_report(report, expected)[0]:
        problems.append("verify check accepts a FAIL entry")
    return problems


def check_bare_directory(tmp: Path) -> list:
    """Without a jetmech checkout the benchmark fails and prints no result."""
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_tiny("symbolic", 0, cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tmp = ROOT / ".perfbench-out" / "smoke"
    shutil.rmtree(tmp, ignore_errors=True)
    problems = []
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                problems += check_result(workload, trace, spec)
        problems += check_corrupted_references(tmp / "corrupt")
        problems += check_bare_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
