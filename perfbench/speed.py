"""Box-speed probe, so that timings can be read at one reference speed.

The speed of a shared machine drifts by tens of percent over seconds to
minutes, and a benchmark timing taken in a slow spell reads slower although
the code is the same. While a `SpeedProbe` runs, a wall-clock timer
interrupts the process every INTERVAL_S seconds and times a fixed reference
kernel (a Python loop plus a numpy sort, as in cproc's own mix). A span of
wall time is then rescaled by REF_S / (median kernel time in and around the
span): the result is the time the span would have taken at the speed at
which the kernel takes REF_S, in seconds. The kernel work itself (about 2 %
of the wall time) stays inside the spans it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REF_S = 0.00175  # median kernel time on the reference box (2 vCPU VM, Python 3.11)
INTERVAL_S = 0.1
PAD_S = 0.1  # probe samples this far around a span also count for it
MIN_SAMPLES = 5

_SORTED = np.random.default_rng(0).random(20_000)


def kernel() -> None:
    s = 0
    for i in range(20_000):
        s += i * i
    np.sort(_SORTED)


class SpeedProbe:
    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each kernel run, increasing
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the median kernel time within PAD_S of [t0, t1],
        widened to the MIN_SAMPLES nearest samples when there are fewer."""
        return REF_S / statistics.median(self.window(t0, t1))

    def window(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.times, t0 - PAD_S)
        hi = bisect.bisect_right(self.times, t1 + PAD_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            before = self.times[lo - 1] if lo > 0 else None
            after = self.times[hi] if hi < len(self.times) else None
            if after is None or (before is not None and t0 - before <= after - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise ValueError("no speed-probe samples")
        return self.durations[lo:hi]

    def adjusted(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)
