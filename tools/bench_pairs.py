"""Alternating benchmark pairs of two jetmech checkouts.

Usage (from the root of a jetmech checkout):

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        [--pairs 10] [--seed 7] [--seconds 20]

PARENT_ROOT and CHANGE_ROOT are checkout roots, each holding
``src/jetmech`` and ``perfbench/``. A pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once from each root, one after the other: the parent goes first in even
pairs and the change in odd ones, so a drift in machine load falls on both
sides alike. Before the first run, ``src/jetmech/__pycache__`` is deleted
in both roots, so that both import from the same bytecode state; under
PYTHONDONTWRITEBYTECODE=1 a copied tree's stale bytecode is never
refreshed and shows up as slower imports (``setup_s``).

The summary gives, for each end-to-end metric of this checkout's
BENCHMARK.json, each side's median and quartiles over the pairs, in how
many pairs the change was better, and whether the medians differ by more
than the parent's interquartile range. A last block gives each metric's
change median relative to the parent median and flags a metric that got
worse by more than its ``bound`` in BENCHMARK.json. perfbench/ is only
run, never changed. Exits 1 if a run fails, is not correct or has failed
operations.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
RUN_TIMEOUT_PAD_S = 300  # beyond --seconds: setup samples and reference checks


def clear_bytecode(root: Path):
    shutil.rmtree(root / "src" / "jetmech" / "__pycache__", ignore_errors=True)


def parse_result(stdout: str) -> dict:
    """The result object on the last line of a perfbench run's stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=seconds + RUN_TIMEOUT_PAD_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def run_pairs(roots: tuple, pairs: int, run, report=print) -> list:
    """[(parent result, change result)] for ``pairs`` pairs, alternating
    which side runs first; ``run(root)`` returns one run's result."""
    out = []
    for index in range(pairs):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            results[side] = run(roots[side])
        out.append(tuple(results))
        report(f"pair {index + 1}/{pairs} ({SIDES[order[0]]} first): " + "; ".join(
            f"{side} " + " ".join(f"{k}={m['value']:.6g}" for k, m in r["metrics"].items())
            for side, r in zip(SIDES, results)))
    return out


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, metrics: list) -> list:
    """Summary lines for [(parent result, change result)] over
    ``metrics``, a list of (name, unit, better) with better "lower" or
    "higher"."""
    lines = [f"{len(pairs)} pairs; median [q1, q3] per side", f"{'metric':<18}"
             f"{'parent':>34}{'change':>34}  change better  gap > parent IQR"]
    for name, unit, better in metrics:
        sides = [[r["metrics"][name]["value"] for r in side] for side in zip(*pairs)]
        stats = [(statistics.median(values), *_quartiles(values)) for values in sides]
        cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}]" for med, q1, q3 in stats]
        sign = 1 if better == "lower" else -1
        won = sum(1 for old, new in zip(*sides) if sign * (old - new) > 0)
        (old_med, old_q1, old_q3), (new_med, _, _) = stats
        beyond = sign * (old_med - new_med) > old_q3 - old_q1
        lines.append(f"{f'{name} ({unit})':<18}{cells[0]:>34}{cells[1]:>34}"
                     f"  {f'{won}/{len(pairs)}':>13}  {'yes' if beyond else 'no'}")
    for side, results in zip(SIDES, zip(*pairs)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        lines.append(f"{side}: {failed}/{attempted} operations failed, "
                     f"{'all runs correct' if correct else 'NOT all runs correct'}")
    return lines


def bound_lines(pairs: list, bounds: list) -> list:
    """One line per metric of ``bounds``, a list of (name, better, bound):
    the change's median relative to the parent's, flagged when it is worse
    by more than ``bound``, the fraction BENCHMARK.json allows."""
    lines = ["change median relative to the parent median, against each bound"]
    for name, better, bound in bounds:
        old, new = (statistics.median(r["metrics"][name]["value"] for r in side)
                    for side in zip(*pairs))
        rel = new / old - 1  # every end-to-end metric is a positive measure
        worse = rel > bound if better == "lower" else -rel > bound
        lines.append(f"{name:<18}{rel:>+9.1%}  bound {bound:.0%}"
                     + ("  WORSE BEYOND BOUND" if worse else ""))
    return lines


def healthy(pairs: list) -> bool:
    return all(r["correct"] and r["failed"] == 0 for pair in pairs for r in pair)


def _root(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / "perfbench" / "run.py").is_file() or not (root / "src" / "jetmech").is_dir():
        raise argparse.ArgumentTypeError(f"{path} is not a jetmech checkout root")
    return root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=_root, help="checkout root of the parent")
    parser.add_argument("change", type=_root, help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    roots = (args.parent, args.change)
    for root in roots:
        clear_bytecode(root)
    pairs = run_pairs(roots, args.pairs,
                      lambda root: run_once(root, args.workload, args.seed, args.seconds),
                      lambda line: print(line, flush=True))
    print(f"{args.workload} seed {args.seed}, --seconds {args.seconds:g}")
    print("\n".join(summarize(pairs, metrics)))
    bounds = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    print("\n".join(bound_lines(pairs, bounds)))
    return 0 if healthy(pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
