"""Host-speed normalisation for the timing metrics.

The machines this benchmark runs on are shared: the same code can run 30 %
slower for a few hundred milliseconds, or for minutes, depending on what the
neighbours do. A fixed reference is timed between items, at most every
PROBE_INTERVAL_S, and each item's time is scaled by the reference's nominal
time over the mean of its timings around that item. A run on a slowed host
then reports about what it would have on an unloaded one, even when the
slowdown lasts only part of the run.

There are two references, because a pure-Python kernel does not follow the
speed of process start-up. In-process workloads use a stdlib-only kernel of
exact rationals. Workloads whose items are interpreter launches, and set-up,
use a bare interpreter launch. Neither touches goldenl, so no change to
goldenl can change them; the unscaled figures and the factor are printed
alongside (the perfbench-info line).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
# Reference timings taken on each side of an item's start for its factor:
# about half a second of host state. Narrower windows follow the reference's
# own noise.
WINDOW = 5
# Nominal times of the two references. They only set the unit: scaled times
# read as a host on which the references take these times (README.md).
KERNEL_S = 0.0028
BARE_LAUNCH_S = 0.080


def reference_kernel() -> None:
    """Exact rationals, dict stores and string building, like goldenl's own mix."""
    acc, table = Fraction(1, 3), {}
    for i in range(1, 200):
        acc = (acc * Fraction(i, i + 7) + Fraction(1, i)) % 5
        table[i % 37] = str(acc.numerator)[-8:]


def bare_launch() -> None:
    # No timeout: with one, waiting for the exit polls at doubling intervals,
    # which rounds an 80-ms launch up to 114 ms.
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True)


class SpeedProbe:
    """Times a reference between items, at most once per PROBE_INTERVAL_S."""

    def __init__(self, reference=reference_kernel, nominal_s: float = KERNEL_S) -> None:
        self.reference, self.nominal_s = reference, nominal_s
        self.times: list[float] = []
        self.marks: list[int] = []  # per item: how many reference timings preceded its start
        self._last = float("-inf")

    def before_item(self) -> None:
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            start = time.perf_counter()
            self.reference()
            self._last = time.perf_counter()
            self.times.append(self._last - start)
        self.marks.append(len(self.times))

    def factors(self) -> list[float]:
        """Per item, the factor that normalises its time: the reference's nominal
        time over the mean of the WINDOW timings on either side of its start."""
        return [self.nominal_s / statistics.fmean(self.times[max(0, m - WINDOW):m + WINDOW]) for m in self.marks]
