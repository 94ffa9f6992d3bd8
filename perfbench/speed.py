"""Machine-speed reference for the benchmark's timings.

The benchmark machine's speed is not constant: measured on a 2-vCPU
VM, the same radarnet call took 0.11 s in one second and 0.20 s in the
next, and whole 30-second runs came out 1.7x apart.  Work on the other
vCPU (another process, a neighbour on the host) slows this one by up to
2x.  No run length averages that out.

So every timing is also expressed at a reference speed.  A fixed
reference kernel (small numpy solves and a Python loop, the same mix of
interpreter and tiny-array work as radarnet) is timed about every
``PERIOD_S`` seconds between operations.  An operation's wall time is
scaled by ``NOMINAL_S / r``, where ``r`` is the mean of the reference
times (each the median of three kernel runs) just before and just after
it: the result is its duration on a machine where
the kernel takes ``NOMINAL_S``.  The kernel does not call radarnet, so
no change to the program moves it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.005
PERIOD_S = 0.2
_A = np.eye(4) * 2.0 + 0.1
_B = np.ones(4)


def kernel() -> float:
    acc = 0.0
    for i in range(400):
        x = np.linalg.solve(_A, _B)
        acc += math.hypot(float(x[0]), i * 0.5) + float(np.sum(_A @ x))
    for i in range(20000):
        acc += i * i % 7
    return acc


def reference_time(repeats: int = 3) -> float:
    """Median duration of a few back-to-back kernel runs."""
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


class SpeedProbe:
    """Kernel timings taken between operations, and the scale they imply."""

    def __init__(self):
        self.times: list[float] = []  # start of each kernel run
        self.durations: list[float] = []

    def sample(self) -> None:
        """Median of three kernel runs, so a burst of interference does not set the scale."""
        self.times.append(time.perf_counter())
        self.durations.append(reference_time(3))

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time of the samples bracketing [start, end]."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        picks = [self.durations[i] for i in (before, after) if 0 <= i < len(self.times)]
        return NOMINAL_S / statistics.mean(picks)

    def median(self) -> float:
        return statistics.median(self.durations)
