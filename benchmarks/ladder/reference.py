"""A fixed unit of reference work that clocks the host's current speed.

The host this benchmark was written on is shared: from one run to the
next, the same work takes up to 2x longer, while within one run it
holds to a few percent.  Every CPU-bound metric moves with it, so the
ladder runs this unit (frame-sized numpy FFTs plus a pure-Python loop,
the two kinds of work the decision path mixes) next to the measured work, and
reports times in *reference* seconds: as they would read on a host
where the unit takes :data:`NOMINAL_MS`.  The unit's own median time is
reported as ``calib_ms``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_MS = 5.0
"""The unit's time on a quiet host of the machine class this was written on."""

PERIOD_S = 0.5
"""Least gap between units taken next to measured work (~1 % of its time)."""

SETUP_UNITS = 3
"""Units taken between set-up stages, outside their timed intervals."""

_FRAMES = np.random.default_rng(0).standard_normal((64, 2048))


def unit_ms() -> float:
    """Time (ms) of one reference unit.

    Frame-sized FFTs tracked the decision path's slowdowns more closely
    than one long FFT did: over 12 minutes of a busy host, the ratio of
    decision time to unit time moved 0.03-0.05 (SD of its log, 20-s
    bins) where the decision time alone moved 0.10.
    """
    start = time.perf_counter()
    for _ in range(2):
        np.fft.irfft(np.fft.rfft(_FRAMES, axis=1), axis=1)
    total = 0
    for i in range(50_000):
        total += i
    return (time.perf_counter() - start) * 1000.0


class Reference:
    """Timed reference units, as ``(wall clock, ms)`` pairs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._last = -math.inf

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append((time.perf_counter(), unit_ms()))

    def tick(self) -> None:
        """Take a unit if :data:`PERIOD_S` has passed since the last tick."""
        now = time.perf_counter()
        if now - self._last >= PERIOD_S:
            self._last = now
            self.sample()


def slowdown(samples) -> tuple[float, float]:
    """``(mean unit ms, its ratio to NOMINAL_MS)`` over ``samples``.

    Dividing a time by the ratio (or multiplying a rate) gives it in
    reference seconds.  The mean is geometric: when the host flips
    between fast and slow stretches within a phase, the work pays for
    both, which a median of the units misses.
    """
    mean = statistics.geometric_mean(ms for _, ms in samples)
    return mean, mean / NOMINAL_MS
