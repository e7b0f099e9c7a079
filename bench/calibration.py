"""Host-speed calibration of measured times.

The shared host this benchmark runs on changes speed by up to about 2x in
phases of seconds to minutes.  A fixed reference kernel, independent of the
program under test, is timed right before and right after each measured
interval.  Its time divided by ``NOMINAL_S`` is the host's slowdown during
that interval, and the interval divided by the slowdown is the time it
would have taken on the host at nominal speed.  The kernel is a plain
interpreted loop: of the kernels tried (JSON encoding, small LAPACK calls,
batched numpy products, interpreted loops) its slowdown followed the
program's calls most closely.
"""

from __future__ import annotations

import time

import numpy as np

# time of one warm reference() on the 2-vCPU Xeon host in its fast phases
NOMINAL_S = 2.3e-3


def reference() -> int:
    """Fixed work, a few milliseconds long."""
    total = 0
    for i in range(40000):
        total += i * i
    return total


def reference_s() -> float:
    """Seconds one reference() takes now, run once first to warm the caches
    the previous work left cold."""
    reference()
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def slowdowns(refs) -> np.ndarray:
    """Slowdown during each interval between consecutive reference times."""
    refs = np.asarray(refs)
    return (refs[:-1] + refs[1:]) / (2 * NOMINAL_S)
