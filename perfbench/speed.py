"""Tracks the interpreter's speed on a shared machine while a timed region runs.

The machine this benchmark was built on runs every Python call up to half
again as slow in bursts of a fraction of a second to minutes, and that share
of slow time moved window medians by about a fifth between runs.  A timer
signal times a fixed pure-Python kernel every PROBE_INTERVAL s of the timed
region (about 0.3 % of the time), and interpreter-bound timings are scaled
by REFERENCE_S over the kernel's median time over the same stretch of wall
time: they read as seconds on the reference machine at its quiet speed.

The kernel touches a few hundred bytes, so the program's own work barely
moves it; a memory-bound workload is not scaled (see `normalised`).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PROBE_INTERVAL = 0.05
REFERENCE_S = 1.2e-4  # the kernel's time on the reference machine when quiet


def _kernel() -> float:
    acc = 0.0
    for i in range(1500):
        acc += math.sqrt(i + 1.0) * 0.5
    return acc


class SpeedProbe:
    """Context manager sampling the kernel's time from SIGALRM every PROBE_INTERVAL s."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel's median time between `start` and `end`
        (perf_counter times), or over the three samples nearest to that
        stretch when it holds fewer."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if len(inside) < 3:
            middle = 0.5 * (start + end)
            inside = [dt for _, dt in sorted(self.samples, key=lambda s: abs(s[0] - middle))[:3]]
        return REFERENCE_S / statistics.median(inside) if inside else 1.0
