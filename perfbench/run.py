"""jetmech benchmark: real CLI jobs, checked against independent references.

Usage (from the root of a jetmech checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run builds the workload's job list from the seed, then runs passes in a
closed loop with one client: each pass is a fresh interpreter
(``pass_runner.py``) that runs every job once through
``jetmech.cli.main(argv)``. Passes repeat until the next one would end
after S seconds, with at least MIN_PASSES of them. Outputs of the first
pass are checked against references computed outside the timed passes
(``references.py``), and every later pass must reproduce them byte for
byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics. Lines before it give every metric
by name and unit, the job sample count and the environment. The full
result is also written to ``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import sympy

import references
import tracing
import workloads
from calibration import REFERENCE_S

MIN_PASSES = 3
SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s
P90_MIN_SAMPLES = 100  # job_p90_ms needs at least this many job latencies
PASS_TIMEOUT_S = 90

HERE = Path(__file__).resolve().parent


class HarnessError(Exception):
    """The benchmark itself could not run (not a jetmech job failure)."""


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def load_1min():
    try:
        with open("/proc/loadavg", "r", encoding="utf-8") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "loadavg_1min_start": load_1min(),
    }


def measure_setup(env, cwd) -> list:
    """Wall seconds for a fresh interpreter to import jetmech.cli,
    SETUP_SAMPLES times after one untimed warm-up (which also byte-compiles
    the sources)."""
    cmd = [sys.executable, "-c", "import jetmech.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=60)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise HarnessError(f"import jetmech.cli failed: {proc.stderr.decode()[-500:]}")
        if i:
            samples.append(elapsed)
    return samples


class Run:
    def __init__(self, workload, seed, root: Path):
        self.wl = workload
        self.seed = seed
        self.src = root / "src"
        out = root / ".perfbench-out"
        self.work = out / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.results = out / "results"
        self.env = dict(os.environ)
        src = str(self.src)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.passes = []  # (traced, result)

    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "inputs").mkdir(parents=True)
        self.results.mkdir(parents=True, exist_ok=True)
        for name, text in self.wl.inputs.items():
            (self.work / "inputs" / name).write_text(text, encoding="utf-8")

    def run_pass(self, index: int, traced: bool) -> dict:
        pass_dir = self.work / f"pass-{index}"
        pass_dir.mkdir()
        spec_path = self.work / f"spec-{index}.json"
        result_path = self.work / f"result-{index}.json"
        spans = self.results / f"spans-{self.wl.name}-seed{self.seed}.jsonl"
        spec = {
            "jobs": [job.spec() for job in self.wl.jobs],
            "trace": traced,
            "result": str(result_path),
            "spans": str(spans) if traced else None,
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "pass_runner.py"), str(spec_path)],
            cwd=pass_dir, env=self.env, capture_output=True, timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise HarnessError(f"pass {index} crashed: {proc.stderr.decode()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(result["jetmech"]).resolve().is_relative_to(self.src.resolve()):
            raise HarnessError(f"jetmech was imported from {result['jetmech']}, not {self.src}")
        if index > 0:  # pass 0 is kept for the reference checks
            shutil.rmtree(pass_dir)
        return result

    def loop(self, seconds: float, trace: bool):
        """Closed loop with one client until the next pass would overrun."""
        kinds = (False, True) if trace else (False,)
        start = perf_counter()
        lengths = []
        while True:
            counts = [sum(1 for t, _ in self.passes if t == k) for k in kinds]
            remaining = seconds - (perf_counter() - start)
            if min(counts) >= MIN_PASSES and statistics.median(lengths) > remaining:
                break
            traced = trace and len(self.passes) % 2 == 1
            t0 = perf_counter()
            self.passes.append((traced, self.run_pass(len(self.passes), traced)))
            lengths.append(perf_counter() - t0)

    def check_outputs(self) -> list:
        """Reference check of each job's outputs in pass 0: (ok, err, detail)."""
        trajectories, forms = {}, {}

        def check(job, path):
            kind = job.check[0]
            if kind == "trajectory":
                system, method = job.check[1], job.check[2]
                if system.name not in trajectories:
                    trajectories[system.name] = references.reference_trajectory(system)
                return references.check_trajectory(path, system, method,
                                                   trajectories[system.name])
            if kind == "symbolic":
                system = job.check[1]
                if system.name not in forms:
                    forms[system.name] = references.PolynomialForm(system)
                return references.check_symbolic(path, forms[system.name], job.check[2])
            return references.check_verify_report(path, workloads.VERIFY_CHECKS)

        checks = []
        for job in self.wl.jobs:
            path = self.work / "pass-0" / job.output
            try:
                checks.append(check(job, path))
            except (OSError, KeyError, IndexError, TypeError, ValueError, SyntaxError) as exc:
                checks.append((False, 0.0, f"unreadable output: {exc!r}"))
        return checks

    def failures(self, checks) -> list:
        """One entry per failed job execution: (pass, job index, reason)."""
        first = self.passes[0][1]["jobs"]
        out = []
        for p, (_, result) in enumerate(self.passes):
            for i, (job, rec) in enumerate(zip(self.wl.jobs, result["jobs"])):
                if rec["traceback"] is not None:
                    reason = "traceback: " + rec["traceback"].strip().splitlines()[-1]
                elif rec["exit"] != job.expect_exit:
                    said = (rec["stdout"].strip().splitlines() or [""])[-1]
                    reason = f"exit {rec['exit']}, expected {job.expect_exit}: {said}"
                elif rec["digest"] is None or rec["digest"] != first[i]["digest"]:
                    reason = "output missing or not byte-identical to pass 0"
                elif not checks[i][0]:
                    reason = "reference: " + checks[i][2]
                else:
                    continue
                out.append((p, i, reason))
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def latencies(results, reference: bool) -> list:
    """[pass][job] job latencies in raw seconds, or in reference seconds
    (rescaled by the calibrations timed just before and after the job)."""
    table = []
    for r in results:
        cal = r["calibration_s"]
        row = []
        for j in r["jobs"]:
            scale = 1.0
            if reference:
                scale = REFERENCE_S / ((cal[j["cal_index"]] + cal[j["cal_index"] + 1]) / 2)
            row.append(j["latency_s"] * scale)
        table.append(row)
    return table


def wall(results, reference: bool) -> float:
    """Median over passes of the pass's summed job latencies."""
    return _median([sum(row) for row in latencies(results, reference)])


def per_job_medians(results, reference: bool) -> list:
    """Each job's median over passes; their percentiles are the job
    latency percentiles, with each job's pass-to-pass noise filtered out."""
    return [_median(col) for col in zip(*latencies(results, reference))]


def end_to_end(run: Run, setup, checks, failed, attempted) -> tuple:
    untraced = [r for t, r in run.passes if not t]
    samples = sum(len(r["jobs"]) for r in untraced)
    jobs = per_job_medians(untraced, True)
    wall_s = wall(untraced, True)
    # Interpreter launches are rescaled by the run's median calibration, not
    # per launch: a loop timed around each launch tracked it worse than none.
    run_calibration = _median([c for r in untraced for c in r["calibration_s"]])
    metrics = {
        "setup_s": (_median(setup) * REFERENCE_S / run_calibration, "s"),
        "wall_s": (wall_s, "s"),
        "job_p50_ms": (_median(jobs) * 1e3, "ms"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in untraced]), "MB"),
    }
    report = dict(metrics)
    if samples >= P90_MIN_SAMPLES and len(jobs) > 1:
        report["job_p90_ms"] = (statistics.quantiles(jobs, n=10)[-1] * 1e3, "ms")
    if run.wl.samples_per_pass:
        report["samples_per_s"] = (run.wl.samples_per_pass / wall_s, "1/s")
        report["max_ref_err"] = (max(c[1] for c in checks), "1")
    if run.wl.systems_per_pass:
        report["systems_per_s"] = (run.wl.systems_per_pass / wall_s, "1/s")
    report["fail_ratio"] = (failed / attempted, "1")
    report["setup_raw_s"] = (_median(setup), "s")
    report["wall_raw_s"] = (wall(untraced, False), "s")
    report["job_p50_raw_ms"] = (_median(per_job_medians(untraced, False)) * 1e3, "ms")
    return metrics, report, samples


def per_layer(run: Run) -> dict:
    traced = [r for t, r in run.passes if t]
    untraced = [r for t, r in run.passes if not t]

    def med(fn):
        return _median([fn(r) for r in traced])

    values = {}
    for name, unit in tracing.per_layer_metrics():
        base, stat = name.rsplit(".", 1)
        if base == "dynamics.rhs":
            if stat == "calls":
                value = med(lambda r: r["rhs_calls"])
            else:
                value = med(lambda r: r["rhs_calls"] / r["csv_rows"] if r["csv_rows"] else 0.0)
        elif name == "dynamics.write_trajectory_csv.bytes":
            value = med(lambda r: r["csv_bytes"])
        elif name == "trace.overhead_ratio":
            value = wall(traced, True) / wall(untraced, True)
        else:
            value = med(lambda r, b=base, s=stat: r["spans"].get(b, {}).get(s, 0))
        values[name] = (value, unit)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "jetmech" / "cli.py").is_file():
        print("perfbench: run from the root of a jetmech checkout "
              "(src/jetmech/cli.py not found)", file=sys.stderr)
        return 2

    env = environment()
    workload = workloads.build(args.workload, args.seed, args.scale)
    again = workloads.build(args.workload, args.seed, args.scale)
    inputs_deterministic = (
        workload.inputs == again.inputs
        and [j.spec() for j in workload.jobs] == [j.spec() for j in again.jobs]
    )
    run = Run(workload, args.seed, root)
    try:
        run.prepare()
        setup = measure_setup(run.env, root)
        run.loop(args.seconds, bool(args.trace))
        checks = run.check_outputs()
    except (HarnessError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    failures = run.failures(checks)
    attempted = sum(len(r["jobs"]) for _, r in run.passes)
    failed = len(failures)
    correct = inputs_deterministic and failed == 0
    metrics, report, job_samples = end_to_end(run, setup, checks, failed, attempted)
    if args.trace:
        metrics = per_layer(run)
    env["loadavg_1min_end"] = load_1min()

    n_traced = sum(1 for t, _ in run.passes if t)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run.passes) - n_traced} traced_passes={n_traced} "
          f"jobs_per_pass={len(workload.jobs)} job_samples={job_samples}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in report.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:.6g} {unit}")
    if not inputs_deterministic:
        print("FAIL: the seed did not regenerate byte-identical inputs")
    for p, i, reason in failures[:10]:
        print(f"FAIL pass {p} job {i} ({' '.join(workload.jobs[i].argv)}): {reason}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, job_samples=job_samples, setup_samples_s=setup,
                  pass_calibration_s=[r["calibration_s"] for t, r in run.passes if not t],
                  pass_latencies_s=latencies([r for t, r in run.passes if not t], False),
                  pass_latencies_ref_s=latencies([r for t, r in run.passes if not t], True),
                  report={k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                  failures=failures)
    out = run.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
