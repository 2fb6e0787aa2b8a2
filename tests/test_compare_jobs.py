"""tools/compare_jobs.py: every benchmark job under two source trees."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_jobs.py"
SRC = ROOT / "src"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_jobs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_matches_itself():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(SRC), str(SRC), "--seeds", "5", "--scale", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    # tiny scale: 2 preset, 4 coupled, 6 symbolic and 1 verify job
    assert proc.stdout == "13 jobs compared, 0 differ\n"


def test_a_changed_output_is_reported(tmp_path, monkeypatch):
    tool = load_tool()
    changed = tmp_path / "src"
    shutil.copytree(SRC / "jetmech", changed / "jetmech",
                    ignore=shutil.ignore_patterns("__pycache__"))
    dynamics = changed / "jetmech" / "dynamics.py"
    text = dynamics.read_text()
    assert "RKF45_RTOL = 1e-9\n" in text
    dynamics.write_text(text.replace("RKF45_RTOL = 1e-9\n", "RKF45_RTOL = 1e-7\n"))
    monkeypatch.setattr(tool.workloads, "WORKLOADS", ("presets-sim",))
    lines = []
    assert tool.compare((SRC, changed), [5], "tiny", lines.append) == (2, 1)
    # of the two tiny preset jobs only the rkf45 one depends on the tolerance
    assert lines[0].startswith("presets-sim seed 5 job ")
    assert lines[0].endswith("--method rkf45: digest differ")
