"""The host-speed sampler takes its own time out of a span and restores
the SIGALRM handler it replaced."""

from __future__ import annotations

import signal
import sys
import unittest
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostspeed import INTERVAL, HostSpeed  # noqa: E402


class HostSpeedTest(unittest.TestCase):
    def test_span_excludes_sampling_and_measures_slowness(self) -> None:
        before = signal.getsignal(signal.SIGALRM)
        speed = HostSpeed()
        speed.start()
        try:
            mark = speed.mark()
            start = perf_counter()
            while perf_counter() - start < 10 * INTERVAL:
                pass
            span = speed.span(mark)
        finally:
            speed.stop()
        self.assertGreater(len(speed.samples), 10)
        self.assertGreater(speed.stolen, 0.0)
        self.assertLess(span.seconds, perf_counter() - start)
        self.assertGreater(span.index, 0.0)
        self.assertEqual(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
