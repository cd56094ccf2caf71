"""Machine-speed probe: times are reported at a fixed reference speed.

The box this benchmark runs on is shared, and its speed drifts by up to 2x
within seconds while the work stays the same; the process's CPU time drifts
with it, so this is the core running slower, not waiting for it.  A fixed
pure-Python kernel (exact Gaussian elimination over Fractions, the same kind
of work as the library's) is timed every ``EVERY_S`` seconds outside the
timed intervals.  Each measured interval is multiplied by
``REFERENCE_S / kernel time``, with the kernel time taken as the mean of the
probes just before and just after it.  On identical work this cuts the
spread of 4-second blocks from about 60% to about 7%.

``REFERENCE_S`` is the kernel's time on the 2-core box (CPython 3.11.7) where
the committed baseline was recorded, when that box ran at full speed, so a
scaled figure reads as milliseconds at that speed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.00045
EVERY_S = 0.1

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(7)] for _ in range(7)]


def kernel() -> None:
    a = [row[:] for row in _MATRIX]
    for c in range(7):
        p = next(i for i in range(c, 7) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        for i in range(c + 1, 7):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]


def kernel_seconds() -> float:
    """Fastest of three kernel runs, to shed interrupts."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Probe:
    """Kernel timings taken along a run, and the scale factor they imply."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        self.samples.append(kernel_seconds())
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def tick(self) -> int:
        """Probe if the last probe is older than EVERY_S; the latest probe's index."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor for an interval that began after probe k and ended before probe k + 1."""
        after = self.samples[min(k + 1, len(self.samples) - 1)]
        return REFERENCE_S / ((self.samples[k] + after) / 2)
