"""The machine's current speed, sampled while the benchmark runs.

On a shared VM the speed of the same Python code drifts by a fifth within a
minute, and from one second to the next.  A fixed calibration loop runs every
``INTERVAL_S`` from a SIGALRM handler, so its samples are spread over the
timed commands, and every time is scaled to the speed at which the loop takes
``REFERENCE_CALIBRATION_S``.  No ``twostage`` code runs in the loop, so a
change to the program cannot move it; only the machine does.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from fractions import Fraction

# What ``calibration_seconds`` takes on the 2-core x86_64 VM (CPython 3.11.7)
# where the benchmark was defined.
REFERENCE_CALIBRATION_S = 0.0065
INTERVAL_S = 0.065  # so calibration takes about a tenth of the wall time
# Samples a speed rests on at least: one sample alone is off by a third at times.
MIN_SAMPLES = 5


def calibration_seconds() -> float:
    """Time of a short fixed loop of standard-library Fraction arithmetic and JSON.

    Garbage collection is off meanwhile: a collection set off by the loop
    would scan the program's heap and charge its size to the machine.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = Fraction(0)
        doc = {}
        for i in range(1, 500):
            x = Fraction(i % 17 + 1, i % 13 + 2) * Fraction(3, 7) - Fraction(i % 5, 11)
            total += x
            doc[str(i)] = {"exact": f"{x.numerator}/{x.denominator}", "sum": str(total)}
        json.loads(json.dumps(doc, sort_keys=True, indent=2))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Calibrates every ``INTERVAL_S`` while entered.

    ``now`` and ``now_ns`` are clocks that stop while the handler calibrates,
    so commands and spans timed with them are not charged for it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.stolen

    def now_ns(self) -> int:
        return time.perf_counter_ns() - round(self.stolen * 1e9)

    def _calibrate(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(calibration_seconds())
        self.stolen += time.perf_counter() - started

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first: int = 0, last: int | None = None) -> float:
        """Reference over mean calibration time, over ``samples[first:last]``
        of the last time entered."""
        while len(self.samples) < MIN_SAMPLES:  # entered for only a few intervals
            self.samples.append(calibration_seconds())
        return REFERENCE_CALIBRATION_S / statistics.fmean(self.samples[first:last])
