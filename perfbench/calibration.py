"""Machine-speed calibration.

The machines this benchmark runs on are shared: the speed of one core
drifts by tens of percent within minutes, and a fixed job measured 0.53 s
in one pass and 0.99 s a few seconds later. ``calibrate`` times a fixed
pure-Python loop (float arithmetic on lists, string formatting, dict
stores: the operations jetmech's hot paths are made of). The pass runner
times it before the first job and between jobs, and the harness rescales
each job latency by ``REFERENCE_S / calibration``: the result is the time
the job would take on a machine where the loop takes REFERENCE_S. A slower jetmech
costs proportionally more reference seconds whatever the machine's speed
at the moment; the raw timings are reported alongside. The loop runs with
the garbage collector off, so a collection of the objects a job left
behind does not land inside it.

REFERENCE_S is the loop's median time over 1094 calibrations in ten runs
on the machine that measured the baseline (see README.md). Changing it, or the loop, rescales every
reference-second metric and breaks comparison with earlier runs.
"""

import gc
from time import perf_counter

REFERENCE_S = 0.0085


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop (about 9 ms)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        x = [0.1 * i for i in range(8)]
        seen = {}
        for i in range(6000):
            x = [xi * 0.999 + 0.001 * i for xi in x]
            seen[i & 255] = f"{x[i & 7]:.17g}"
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
