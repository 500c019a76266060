"""Machine-speed probe for timing on a shared, noisy machine.

On a shared 2-vCPU box the same work runs up to 1.5x faster or slower for
seconds at a time, as neighbours load the host. The probe samples that speed
while the program runs: a wall-clock timer interrupts the process every
``INTERVAL_S`` and times a fixed kernel of small NumPy operations and Python
objects, the same kind of work the package does, on warm caches. Measured
intervals are then read on a program clock that excludes the probe's own
time, and scaled to the speed at which the kernel takes ``REFERENCE_S``:

    reference seconds = program seconds * REFERENCE_S / mean kernel time

The kernel does not depend on the package, so a change to the package does
not change the scale. Only the main thread is interrupted; the timer is
stopped and the previous handler restored on exit.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# A fixed constant: about the median kernel time on the 2-vCPU Intel Xeon VM
# the benchmark was tuned on (NumPy 2.4, Python 3.11).
REFERENCE_S = 2.0e-4
# Samples this close to a measured interval set its speed.
WINDOW_S = 0.05
INTERVAL_S = 0.02
KERNEL_LEGS = 10


@dataclass(frozen=True)
class _Leg:
    start: float
    end: float


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._p0 = rng.uniform(0.0, 30.0, (KERNEL_LEGS, 3))
        self._p1 = rng.uniform(0.0, 30.0, (KERNEL_LEGS, 3))
        self._coord = np.linspace(0.0, 30.0, 18)
        self._axis = np.arange(18) % 3
        self._ui = (self._axis + 1) % 3
        self.times: list[float] = []  # program clock at each sample
        self.samples: list[float] = []  # kernel durations
        self.spent = 0.0  # time spent inside the handler
        self._previous = None

    def kernel(self) -> float:
        """Segment-crossing tests on 18 planes plus small Python objects."""
        acc = 0.0
        for p0, p1 in zip(self._p0, self._p1):
            leg = _Leg(float(p0[0]), float(p1[1]))
            acc += math.atan2(leg.start, leg.end + 1.0) + math.hypot(leg.start, leg.end)
            d = p1 - p0
            denom = d[self._axis]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (self._coord - p0[self._axis]) / denom
            t = np.where(np.abs(denom) > 1e-15, t, -1.0)
            hit = (t > 1e-9) & (t < 1.0 - 1e-9)
            u = p0[self._ui] + t * d[self._ui]
            hit &= (u >= 0.0) & (u <= 30.0)
            acc += float(np.count_nonzero(hit)) + float(np.linalg.norm(d))
        return acc

    def _sample(self, signum=None, frame=None) -> None:
        # The first run warms the caches the program has just used, so the
        # timed second run measures the machine and not the program's
        # footprint.
        start = time.perf_counter()
        self.kernel()
        warm = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(start - self.spent)
        self.samples.append(end - warm)
        self.spent += end - start

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """Wall clock that stands still while the probe runs."""
        return time.perf_counter() - self.spent

    def scale(self, start: float, end: float) -> float:
        """Factor from program to reference seconds for [start, end] on clock()."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
        return REFERENCE_S / statistics.fmean(window)


class NoProbe:
    """Stand-in for traced runs, whose per-layer times stay unscaled."""

    spent = 0.0
    clock = staticmethod(time.perf_counter)

    def __enter__(self) -> "NoProbe":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def scale(self, start: float, end: float) -> float:
        return 1.0
