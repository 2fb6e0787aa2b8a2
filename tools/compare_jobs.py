"""Run every benchmark job under two source trees and report what differs.

Usage (from the root of a jetmech checkout):

    python3 tools/compare_jobs.py PARENT_SRC CHANGE_SRC [--seeds 5 101] [--scale tiny]

PARENT_SRC and CHANGE_SRC are directories holding a ``jetmech`` package,
such as the ``src`` of two checkouts. For each workload of
``perfbench/workloads.py`` (imported, never changed) and each seed, the
workload's input files are written once, and its job list runs once per
tree in a fresh interpreter that imports jetmech from that tree. As in a
benchmark pass, the jobs run in order through ``jetmech.cli.main(argv)``
and the output files are hashed after the last job.

A job differs when its exit code, stdout, stderr or output digest is not
the same under the two trees; a job that raises has no exit code and its
traceback, with the tree's path replaced by ``<src>``, stands in for
stderr. Every differing job is printed. Exits 1 if any job differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402 - perfbench is a directory of scripts, not a package

FIELDS = ("exit", "stdout", "stderr", "digest")
PASS_TIMEOUT_S = 600


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def run_pass(spec_path: str) -> int:
    """Child side: run the jobs of SPEC in the current directory and write
    one record per job to SPEC's result path."""
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import jetmech.cli

    src = spec["src"]
    if not Path(jetmech.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"jetmech imported from {jetmech.cli.__file__}, not from {src}")
    records = []
    for job in spec["jobs"]:
        saved = {k: os.environ.get(k) for k in job["env"]}
        os.environ.update(job["env"])
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = jetmech.cli.main(job["argv"])
        except Exception:
            code = None
            err.write(traceback.format_exc().replace(src, "<src>"))
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        records.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    for job, record in zip(spec["jobs"], records):
        record["digest"] = _digest(job["output"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return 0


def _start_pass(src: Path, jobs: list, workdir: Path) -> subprocess.Popen:
    workdir.mkdir()
    spec = {"src": str(src), "jobs": jobs, "result": str(workdir / "result.json")}
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--run-pass", "spec.json"],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _finish_pass(proc: subprocess.Popen, workdir: Path) -> list:
    output, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass in {workdir} failed:\n{output[-2000:]}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def compare(trees: tuple, seeds: list, scale: str, report=print) -> tuple[int, int]:
    """Run every job under both trees; returns (jobs compared, jobs differing)."""
    compared = differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-jobs-") as tmp:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                wl = workloads.build(name, seed, scale)
                root = Path(tmp) / f"{name}-{seed}"
                inputs = root / "inputs"
                inputs.mkdir(parents=True)
                for fname, text in wl.inputs.items():
                    (inputs / fname).write_text(text, encoding="utf-8")
                jobs = [job.spec() for job in wl.jobs]
                sides = [root / "parent", root / "change"]
                procs = [_start_pass(src, jobs, d) for src, d in zip(trees, sides)]
                results = [_finish_pass(p, d) for p, d in zip(procs, sides)]
                for index, (job, old, new) in enumerate(zip(jobs, *results)):
                    compared += 1
                    fields = [f for f in FIELDS if old[f] != new[f]]
                    if fields:
                        differing += 1
                        report(f"{name} seed {seed} job {index} {' '.join(job['argv'])}: "
                               f"{', '.join(fields)} differ")
                        for f in fields:
                            report(f"  {f}: {old[f]!r}\n  -> {new[f]!r}")
    return compared, differing


def _tree(path: str) -> Path:
    src = Path(path).resolve()
    if not (src / "jetmech" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{path} holds no jetmech package")
    return src


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run-pass"]:
        return run_pass(argv[1])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=_tree, help="source tree of the parent (holds jetmech/)")
    parser.add_argument("change", type=_tree, help="source tree of the change (holds jetmech/)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 101])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    compared, differing = compare((args.parent, args.change), args.seeds, args.scale)
    print(f"{compared} jobs compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
