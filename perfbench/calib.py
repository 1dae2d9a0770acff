"""Calibration load that tracks how fast this host's CPU is running right now.

Other tenants of a shared host slow this process down by up to ~1.8x, for
seconds to minutes at a time, and a 30-second run can sit wholly in a slow
stretch. A fixed pure-Python load timed next to the ops slows down with them.
On a 2-vCPU Xeon VM, over 10-second windows of corpus_cli, raw op times swung
between 0.66x and 1.17x of their median while their ratio to a 2.3 KB
calibration load stayed within 0.92-1.03; for 300-service scale_check ops
that ratio drifted by up to 13%, and by up to 9% against the 6 KB load used
here. So every op time is scaled by NOMINAL_S over the calibration time
measured around it, and reads as the time the op takes on an uncontended core
of that machine.

The load is PyYAML's own pure-Python SafeLoader on a fixed document; nothing
in dad runs in it, so no change to dad can move it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

import yaml

import gen

# Calibration load time on an uncontended core of the machine the benchmark
# was tuned on: Intel Xeon VM, 2 vCPUs at 2.1 GHz, Python 3.11.7, PyYAML 6.0.3.
NOMINAL_S = 0.0141
# Large enough (6 KB, a few thousand objects) to feel the memory contention
# that slows dad's bigger ops, small enough to cost ~5% of a run.
DOC = gen.scale_descriptor(random.Random(0), 12).text
_EVERY_S = 0.5  # calibrate after an op once this long has passed since the last time
_NEAREST = 5  # calibrations whose median gives the speed at a moment


def measure() -> float:
    """Seconds for one pass of the calibration load."""
    start = time.perf_counter()
    yaml.load(DOC, Loader=yaml.SafeLoader)
    return time.perf_counter() - start


class Calibrator:
    """Times the calibration load every ~0.5 s and converts raw times to nominal ones."""

    def __init__(self):
        self._at: list[float] = []
        self._seconds: list[float] = []
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        """Calibrate now if the last calibration is older than _EVERY_S."""
        now = time.perf_counter()
        if force or now - self._at[-1] >= _EVERY_S:
            self._seconds.append(measure())
            self._at.append(now)

    def factor(self, at: float) -> float:
        """NOMINAL_S over the median calibration time of the ones nearest `at`."""
        i = bisect.bisect_left(self._at, at)
        lo = max(0, min(i - _NEAREST // 2, len(self._at) - _NEAREST))
        return NOMINAL_S / statistics.median(self._seconds[lo:lo + _NEAREST])

    def summary(self) -> dict:
        return {
            "nominal_s": NOMINAL_S,
            "count": len(self._seconds),
            "median_s": statistics.median(self._seconds),
            "min_s": min(self._seconds),
            "max_s": max(self._seconds),
        }
