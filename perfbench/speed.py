"""CPU times corrected for the speed of a shared core.

On a core shared with other tenants the same work can take from one to two
times as long, in stretches that last from milliseconds to tens of seconds,
so a median of raw times moves by a quarter between runs. While a
``SpeedProbe`` is active, a timer interrupts the main thread every
``INTERVAL_S`` and measures the CPU time of a fixed reference loop there.
The mean sample around an interval measures how slow the core was during
it, and ``calibrated`` scales the interval's CPU time to the speed at which
the reference loop takes ``NOMINAL_S``: seconds on a quiet core. CPU time
rather than wall time, so that time the process spends descheduled does not
count either.

The reference loop allocates no container objects, so it never runs the
cyclic collector over the program's heap. Keep the process on one CPU while
probing: the samples only describe the core the main thread runs on.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter, thread_time

INTERVAL_S = 0.02
NOMINAL_S = 7e-5
MARGIN_S = 0.05
MIN_SAMPLES = 3

_TABLE = tuple(range(64))
_MAP = {i: (i * 7) % 64 for i in range(64)}


def reference() -> int:
    acc = 0
    table, mapping = _TABLE, _MAP
    for i in range(1000):
        acc += mapping[table[i & 63]] ^ i
    return acc


class SpeedProbe:
    """Samples the reference loop on a timer while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start, cpu = perf_counter(), thread_time()
        reference()
        self.durations.append(thread_time() - cpu)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, start: float, end: float, cpu: float, sampled: bool = True) -> float:
        """CPU seconds spent between wall readings start and end, at nominal core speed.

        ``sampled`` says that ``cpu`` includes the samples taken in between
        (true for this process, false for a child), which are then taken off.
        """
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        if hi > len(self.starts):
            raise RuntimeError("too few speed samples; was the probe active?")
        window = range(lo, hi)
        if sampled:
            cpu -= sum(self.durations[i] for i in window if start <= self.starts[i] < end)
        return cpu * NOMINAL_S / statistics.fmean(self.durations[i] for i in window)
