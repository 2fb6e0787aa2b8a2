"""One pass: a fresh interpreter runs a workload's job list once.

Usage: python3 pass_runner.py SPEC.json

SPEC holds ``jobs`` (argv, expected exit code, output, env), ``trace``
and the ``result`` and ``spans`` paths. The runner imports jetmech.cli,
runs every job through ``jetmech.cli.main(argv)`` in the current
directory, one at a time, and writes per-job exit codes, latencies,
tracebacks and output digests, plus peak RSS, to the result path. Output
digests are taken after the job loop.

Before the first job and after a job when CALIBRATION_INTERVAL_S has
passed since the last one (and always after the last job), the runner
times the calibration loop (``calibration.py``). Job ``i`` ran between
calibrations ``cal_index`` and ``cal_index + 1``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from calibration import calibrate

CALIBRATION_INTERVAL_S = 0.05


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def run(spec: dict) -> dict:
    import jetmech.cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    main = jetmech.cli.main

    jobs = []
    calibration = [calibrate()]
    calibrated_at = perf_counter()
    for index, job in enumerate(spec["jobs"]):
        saved = {k: os.environ.get(k) for k in job["env"]}
        os.environ.update(job["env"])
        out = io.StringIO()
        error = None
        if tracer is not None:
            tracer.job = index
            root = tracer.begin("job")
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main(job["argv"])
        except Exception:
            code = None
            error = traceback.format_exc()
        latency = perf_counter() - start
        if tracer is not None:
            tracer.end(root)
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        jobs.append({"exit": code, "latency_s": latency, "traceback": error,
                     "stdout": out.getvalue()[-2000:], "cal_index": len(calibration) - 1})
        last = index == len(spec["jobs"]) - 1
        if last or perf_counter() - calibrated_at >= CALIBRATION_INTERVAL_S:
            calibration.append(calibrate())
            calibrated_at = perf_counter()

    for job, record in zip(spec["jobs"], jobs):
        record["digest"] = _digest(job["output"])
    result = {
        "jetmech": jetmech.cli.__file__,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs,
    }
    if tracer is not None:
        result["spans"] = tracer.stats()
        result["rhs_calls"] = tracer.rhs_calls
        result["csv_rows"] = tracer.csv_rows
        result["csv_bytes"] = tracer.csv_bytes
        tracer.write_spans(spec["spans"])
    return result


def main(argv) -> int:
    with open(argv[0], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
