"""Scale measured times to a reference CPU speed.

On a shared host the CPU runs in slower and faster phases of seconds to
minutes (DESIGN.md, "Calibration").  A fixed CPU loop timed next to each
measurement slows with them, so a time t measured next to a calibration c
is reported as t * (CAL_REF_S / c) ** CAL_EXPONENT.  The loop is benchmark
code and does not change with the program, so a change in the program's
time moves the result by the same factor on either side of a comparison,
as long as the program's mix of CPU-bound and memory-bound work stays the
one the exponent was fitted to.  A change that shifts that mix is misread
in slow phases; DESIGN.md ("Limit of the correction") says how to confirm
a gain from the raw times.
"""
from __future__ import annotations

import statistics
import time

# calibrate()'s time at the reference speed, roughly its time in a fast
# phase of the machine described in DESIGN.md
CAL_REF_S = 0.18
# below 1 because the workloads are partly memory-bound, and memory-bound
# work barely slows in the phases that slow this pure-CPU loop by 1.4x;
# chosen from ten runs per workload (spreads in DESIGN.md)
CAL_EXPONENT = 0.75


def scaled(t: float, cal: float) -> float:
    """A time measured next to calibration `cal`, at the reference speed."""
    return t * (CAL_REF_S / cal) ** CAL_EXPONENT


def calibrated(times: list[float], cals: list[float]) -> float:
    """Median of the times, each scaled by its own calibration."""
    return statistics.median(scaled(t, c) for t, c in zip(times, cals))


def calibrate() -> float:
    """Time a fixed loop shaped like the program's work: small numpy
    cumsum/compare/argmax calls, then Python big-int arithmetic."""
    import numpy as np

    rows = np.linspace(0.0, 1.0, 8192 * 2).reshape(8192, 2)
    t0 = time.perf_counter()
    acc = 0
    for _ in range(400):
        c = np.cumsum(rows, axis=1)
        acc += int((c[:, 0] < 0.5).argmax())
    x = 1
    for i in range(160_000):
        x = (x * 1_000_003 + i) % (1 << 2200)
    return time.perf_counter() - t0
