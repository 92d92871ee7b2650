"""A probe of how fast the host is running right now.

The reference host (2 shared cores) has slow phases that last from a
second to minutes: the same fixed Python loop takes 75 ms or 135 ms
depending on when it runs.  Raw wall-clock medians of ten runs then
differ by 15-20% for no reason inside the program.  The probe is a
fixed few-millisecond kernel with the program's own mix of work (a
Python loop plus numpy draws, bincounts and sorts); it runs at every
operation boundary, and each timing is reported *at reference speed*:
``measured x REFERENCE_S / probe time around the measurement``.  On a
quiet reference host that is the plain measurement.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

#: the probe's duration on the quiet reference host, in seconds
REFERENCE_S = 0.0045
#: how far around a measurement probes still speak for it
SMOOTHING_S = 0.5


class SpeedProbe:
    """A time series of probe runs; thread-safe for the two HTTP clients."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        weights = self._rng.random(400)
        self._weights = weights / weights.sum()
        self._lock = threading.Lock()
        self._ended: list[float] = []
        self._seconds: list[float] = []

    def tick(self) -> None:
        """Run the kernel once and record when it ended and how long it took."""
        with self._lock:
            started = time.perf_counter()
            total = 0
            for value in range(30_000):
                total += value * value
            for _ in range(2):
                draws = self._rng.choice(400, size=20_000, p=self._weights)
                np.bincount(draws, minlength=400)
                values = self._rng.random(20_000)
                (values * values).sum()
                np.sort(values)
            ended = time.perf_counter()
            self._ended.append(ended)
            self._seconds.append(ended - started)

    def slowdown(self, started: float, ended: float) -> float:
        """Median probe time from half a second before ``started`` to half
        a second after ``ended`` (the slow phases last longer than that,
        and a single probe is itself noisy: one in sixty is pre-empted and
        reads 1.5 to 30 times too long, which a mean would pass on to every
        timing near it), as a multiple of the reference; 1.0 with no
        probes."""
        low = bisect.bisect_left(self._ended, started - SMOOTHING_S)
        high = bisect.bisect_right(self._ended, ended + SMOOTHING_S)
        # always at least the probe before and the one after
        low = max(0, min(low, bisect.bisect_left(self._ended, started) - 1))
        high = min(
            len(self._ended), max(high, bisect.bisect_right(self._ended, ended) + 1)
        )
        around = self._seconds[low:high]
        if not around:
            return 1.0
        return statistics.median(around) / REFERENCE_S
