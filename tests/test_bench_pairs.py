"""tools/bench_pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall_s, rate, failed=0):
    """The last stdout line of a perfbench run, as run.py prints it."""
    return json.dumps({
        "correct": failed == 0, "attempted": 300, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}},
    })


def canned_stdout(wall_s, rate, failed=0):
    return f"perfbench workload=symbolic seed=7 trace=0\n  wall_s 1 s\n{result_line(wall_s, rate, failed)}\n"


METRICS = [("wall_s", "s", "lower"), ("rate", "1/s", "higher")]


def test_summary_of_canned_runs():
    tool = load_tool()
    parent = [(0.90, 10.0), (0.92, 11.0), (0.95, 10.0), (0.91, 12.0)]
    change = [(0.72, 10.0), (0.70, 11.5), (0.96, 9.0), (0.71, 12.5)]
    pairs = [(tool.parse_result(canned_stdout(*p)), tool.parse_result(canned_stdout(*c)))
             for p, c in zip(parent, change)]
    lines = tool.summarize(pairs, METRICS)
    assert lines[0] == "4 pairs; median [q1, q3] per side"
    # wall_s: parent 0.915 [0.9075, 0.9275], change 0.715 [0.7075, 0.78];
    # lower in 3 of 4 pairs, and 0.2 apart against a parent IQR of 0.02
    assert lines[2].split() == ["wall_s", "(s)", "0.915", "[0.9075,", "0.9275]",
                                "0.715", "[0.7075,", "0.78]", "3/4", "yes"]
    # rate: higher is better; two of four pairs higher, medians 0.25 apart
    # against a parent IQR of 1.25
    assert lines[3].split() == ["rate", "(1/s)", "10.5", "[10,", "11.25]",
                                "10.75", "[9.75,", "11.75]", "2/4", "no"]
    assert lines[4:] == ["parent: 0/1200 operations failed, all runs correct",
                         "change: 0/1200 operations failed, all runs correct"]
    assert tool.healthy(pairs)


def test_failed_operations_are_reported():
    tool = load_tool()
    pairs = [(json.loads(result_line(0.9, 1.0)), json.loads(result_line(0.8, 1.0, failed=2)))]
    lines = tool.summarize(pairs, METRICS)
    assert lines[-1] == "change: 2/300 operations failed, NOT all runs correct"
    assert not tool.healthy(pairs)


def test_pairs_alternate_which_side_runs_first():
    tool = load_tool()
    order = []

    def run(root):
        order.append(root)
        return json.loads(result_line(0.5, 1.0))

    reported = []
    pairs = tool.run_pairs(("P", "C"), 3, run, reported.append)
    assert order == ["P", "C", "C", "P", "P", "C"]
    assert len(pairs) == 3
    assert reported[1].startswith("pair 2/3 (change first): parent wall_s=0.5 rate=1; ")
