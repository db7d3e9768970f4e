"""Host-speed calibration.

On a shared 2-vCPU Linux VM (Intel Xeon, 2.1 GHz) the CPU speed changed by
up to ~1.8x between regimes lasting from tens of milliseconds to seconds (a
fixed interpreter loop, timed every 75 ms, took 0.81 ms or 1.3-1.5 ms in no
stable pattern).  So every time the benchmark reports is scaled to a
reference speed: while it measures, a run times a short loop every
CALIBRATE_EVERY_S, and multiplies each raw time by REFERENCE_S over the
loop's time around it.  A scaled time reads as "seconds on a machine where
this loop takes REFERENCE_S".  On that VM, for 60 s of a fixed
weight_sweep op mix cut into 5 s pieces, this took the spread (IQR over
median) of ops per second from 11-25% to 1.1%, and of the median latency
from 11-22% to 0.8%; calibrating every 100 ms instead of 20 ms gave 4-6%.
The loop's mix of dict, tuple, sort and Fraction work follows what
gbmoments spends its time on.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.00015
CALIBRATE_EVERY_S = 0.02


def _loop() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
    acc += sorted(table.values(), reverse=True)[0]
    product = Fraction(1)
    for k in range(1, 8):
        product *= Fraction(k, k + 1)
    return acc + product.denominator


def _burst() -> float:
    """Median of three timed runs of the loop, in seconds."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


class Clock:
    """Scales raw times to the reference speed.

    Raw times passed to `add` are held until the next calibration burst;
    then each is multiplied by REFERENCE_S over the mean of the bursts just
    before and just after it.
    """

    def __init__(self):
        _loop()  # the first run of the loop is slower
        self.bursts = [_burst()]
        self.last = time.perf_counter()
        self.pending: list[float] = []
        self.pending_s = 0.0
        self.scaled: list[float] = []
        self.scaled_s = 0.0

    def add(self, raw_s: float) -> None:
        self.pending.append(raw_s)
        self.pending_s += raw_s

    def tick(self, force: bool = False) -> None:
        """Calibrate if CALIBRATE_EVERY_S has passed since the last burst."""
        if not force and time.perf_counter() - self.last < CALIBRATE_EVERY_S:
            return
        self.bursts.append(_burst())
        factor = 2 * REFERENCE_S / (self.bursts[-2] + self.bursts[-1])
        self.scaled += [x * factor for x in self.pending]
        self.scaled_s += self.pending_s * factor
        self.pending, self.pending_s = [], 0.0
        self.last = time.perf_counter()

    def elapsed_s(self) -> float:
        """Reference-speed total of every time added so far."""
        return self.scaled_s + self.pending_s * REFERENCE_S / self.bursts[-1]


def scaled_s(measure) -> float:
    """Call `measure()`, which returns raw seconds, and scale its result."""
    clock = Clock()
    clock.add(measure())
    clock.tick(force=True)
    return clock.scaled[0]
