"""Speed calibration for a machine whose speed drifts.

On the 2-core machine the bounds were set on, the time of a fixed slice of
pure-Python work drifts by about 25% over seconds, with CPU time tracking
wall time, so the drift is the processor's speed and not scheduling.  It
moves every run's figures together and would swamp any bound.

`SpeedSampler` times a ~1 ms slice of fixed work (`probe_work`) every
SAMPLE_EVERY_S on a background thread.  A span of work [t0, t1] is then
rescaled by the sampled speed around it: the calibrated time is the time
the span would take at the speed where one probe takes PROBE_REF_S.  The
probe needs the interpreter lock, so the sampler costs the measured code
about 2%, the same on every commit.
"""
from __future__ import annotations

import bisect
import statistics
import threading
from collections import Counter
from fractions import Fraction
from time import perf_counter

SAMPLE_EVERY_S = 0.05
PROBE_REF_S = 0.001    # a probe's typical time on that machine while operations run
NEIGHBOURS = 10        # samples on each side of a span: about half a second


def probe_work() -> int:
    """Fixed work in the program's own idiom: modular products into a set,
    then Fraction ratios into a Counter."""
    s = set()
    for x in range(1, 60):
        for y in range(1, 40):
            s.add(x * (y + 1) % 40009)
    c = Counter()
    for x in range(1, 10):
        fx = Fraction(x, 7)
        for y in range(1, 12):
            c[fx / Fraction(y, 3)] += 1
    return len(s) + len(c)


def probe() -> float:
    t0 = perf_counter()
    probe_work()
    return perf_counter() - t0


class SpeedSampler:
    """Background speed samples: use as a context manager around a run."""

    def __init__(self):
        self.times = []       # sample end times, increasing
        self.costs = []       # seconds each probe took
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def _sample(self) -> None:
        self.costs.append(probe())
        self.times.append(perf_counter())

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._sample()

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def factor(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the median probe cost sampled during [t0, t1],
        together with NEIGHBOURS samples on each side.  While the sampler
        runs, a span that just ended has no later neighbours yet."""
        lo = max(bisect.bisect_left(self.times, t0) - NEIGHBOURS, 0)
        hi = bisect.bisect_right(self.times, t1) + NEIGHBOURS
        return PROBE_REF_S / statistics.median(self.costs[lo:hi])

    def calibrate(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)
