"""Host-speed index, for timing on a shared host.

On a host shared with other tenants the same pure-Python work can take
anywhere from 1x to 1.8x as long from one minute to the next.  A raw wall
time then says more about the neighbours than about ramsat.  `HostSpeed`
measures those swings from inside the process.  Every INTERVAL seconds a
SIGALRM handler runs a fixed kernel that shares no code with ramsat, and
records how long it took.  The handler runs between two bytecodes of
whatever ramsat is doing, so the samples cover the timed work itself.

For an interval of timed work, `Span.seconds` is its wall time minus the
time spent in the handler.  `Span.index` is the median kernel time in that
interval divided by REFERENCE_S.  So `seconds / index` is the interval's
time at the reference host speed.  Measured on a 2-core Xeon VM with
CPython 3.11, dividing by the index cut the pass-to-pass spread of one
fixed command list from 19% to 6% (coefficient of variation, 30 passes).
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

INTERVAL = 0.05
REFERENCE_S = 0.0004  # the kernel's time at the reference host speed
MIN_SAMPLES = 5  # a shorter interval borrows the latest samples before it


def _kernel() -> int:
    """About 0.4 ms of list indexing and small-int arithmetic."""
    val = [0] * 256
    acc = 0
    for i in range(4000):
        j = (i * 7) & 255
        if val[j]:
            val[j] = 0
            acc += j
        else:
            val[j] = 1
    return acc


@dataclass(frozen=True)
class Span:
    seconds: float  # wall time minus the sampler's own time
    index: float  # host slowness during the span; 1.0 is the reference


class HostSpeed:
    """Samples the kernel on SIGALRM while started (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        took = perf_counter() - start
        self.samples.append(took)
        self.stolen += took

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        while len(self.samples) < MIN_SAMPLES:  # so a first span has samples
            signal.pause()

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[float, int, float]:
        return perf_counter(), len(self.samples), self.stolen

    def span(self, mark: tuple[float, int, float]) -> Span:
        """The span from `mark` to now."""
        start, first, stolen = mark
        seconds = perf_counter() - start - (self.stolen - stolen)
        window = self.samples[min(first, len(self.samples) - MIN_SAMPLES):]
        return Span(seconds, statistics.median(window) / REFERENCE_S)
