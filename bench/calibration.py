"""Scaling job times to a reference machine speed.

The benchmark's machine is shared: other tenants slow every process on it
by up to 2x, in stretches that can outlast a whole run.  So the worker
times a fixed probe at least every PROBE_EVERY_S of wall time and divides
each job's time by the machine's slowness around it: the median of the two
probes before and the two after the job, over REFERENCE_PROBE_S.  Reported
times are therefore milliseconds at the speed at which the probe takes
REFERENCE_PROBE_S; the worker also reports the unscaled throughput and the
median slowness.

The probe never touches heiscurve.  Different code slows by different
amounts under load (an integer loop less than heiscurve's Fraction
arithmetic, Fraction arithmetic more), so the probe mixes the three kinds of
work the library does: integer arithmetic, Fraction arithmetic and the
construction of small frozen dataclasses.  The garbage collector is off
during the probe so that the program's heap cannot change its time.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_PROBE_S = 0.003  # about the probe's time on an unloaded machine
PROBE_EVERY_S = 0.1


@dataclass(frozen=True)
class _Cell:
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % 7919)


def probe():
    clock = time.perf_counter
    gc.disable()
    try:
        start = clock()
        x = 0
        for i in range(12000):
            x = (x * 31 + i) & 0xFFFF
        s = Fraction(0)
        for i in range(1, 150):
            s += Fraction(i, i + 1) * Fraction(3, i + 7)
        cell = _Cell(0, 0)
        for i in range(2500):
            cell = _Cell(cell.a + i, cell.b ^ i)
        return clock() - start
    finally:
        gc.enable()


def slowness_samples(count=3):
    """Slowness (probe time over the reference) measured now, count times."""
    return [probe() / REFERENCE_PROBE_S for _ in range(count)]


class Calibration:
    def __init__(self):
        self.probes = []
        self.last = -PROBE_EVERY_S

    def maybe_probe(self, force=False):
        if force or time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.last = time.perf_counter()

    def position(self):
        """Number of probes so far: a job run now lies between probe
        position - 1 and probe position."""
        return len(self.probes)

    def factor(self, position):
        window = self.probes[max(0, position - 2):position + 2]
        return statistics.median(window) / REFERENCE_PROBE_S

    def scale(self, seconds, position):
        return seconds / self.factor(position)

    def median_factor(self):
        return statistics.median(self.probes) / REFERENCE_PROBE_S
