"""Host-speed calibration: a fixed reference unit timed inside the work.

The reference host is a shared two-core VM.  Its cores run in a fast
and a slow mode as other tenants come and go (one reference unit takes
about 2.7 or 3.8 ms), and the share of time spent in each drifts over
seconds to minutes.  That drift moves every timing of a run together,
and no median inside one run removes it.  So while an interval of work
(a campaign report, a search) is measured, a timer signal runs one
reference unit in the same process every ``PERIOD_S``; the units' time
is taken out of the interval, and a burst of units follows it.  The
interval is reported in *reference seconds*:

    scaled = (raw - time spent in units) x NOMINAL_S / mean(unit times)

i.e. the time the work would have taken on a host running the unit in
``NOMINAL_S``.  The mean, not the median, because a unit's time is
bimodal and the mean integrates the speed over the modes the way the
work does.  The unit mixes what the simulator spends its time on --
interpreted Python (integer arithmetic, dict stores) and numpy calls on
small arrays -- and imports nothing from ``repro``, so no change to the
program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, Sequence

import numpy as np

#: Seconds one reference unit takes on the reference machine.
#: Fixed for good: changing it rescales every reported time.
NOMINAL_S = 0.004
#: Wall seconds between the units run inside a measured interval.
PERIOD_S = 0.1
#: Reference units per burst after an interval.
UNITS = 10

_DATA = np.random.default_rng(20240601).random(25_000)


def unit() -> float:
    """Time one reference unit."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(15_000):
        acc += i * i
        table[i & 1023] = acc
    for _ in range(4):
        np.sort(_DATA)
    return time.perf_counter() - t0


class Reference:
    """The reference units one process ran.

    An inactive reference runs none: a traced process, whose spans the
    units would only blur, reports raw times.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        #: Every unit time, and those of the latest burst.
        self.units: list[float] = []
        self.last: list[float] = []

    def burst(self) -> list[float]:
        self.last = [unit() for _ in range(UNITS)] if self.active else []
        self.units += self.last
        return self.last

    def scaled(self, raw_s: float, before: Sequence[float]) -> float:
        """``raw_s`` of an interval that ended just now, in reference
        seconds: runs a burst, and scales by it and by ``before``, the
        units run before or during the interval."""
        return raw_s / slowdown([*before, *self.burst()])

    def time(self, fn: Callable, *args, **kwargs) -> tuple:
        """``(result, [raw, scaled seconds])`` of one call.

        While it runs, ``SIGALRM`` runs a unit every ``PERIOD_S``;
        ``raw`` is the call's wall time less the time those took.
        """
        during: list[float] = []
        spent = 0.0

        def tick(*_) -> None:
            nonlocal spent
            t0 = time.perf_counter()
            during.append(unit())
            spent += time.perf_counter() - t0

        if self.active:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            if self.active:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        raw = wall - spent
        self.units += during
        return result, [raw, self.scaled(raw, during)]


def slowdown(units: Sequence[float]) -> float:
    """The host's slowdown against the reference machine (1 without units)."""
    return statistics.fmean(units) / NOMINAL_S if units else 1.0
