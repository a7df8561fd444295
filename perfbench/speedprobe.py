"""Machine-speed probe for the mugl benchmark's untraced runs.

On a shared machine, other tenants' load slows this process by up to a
factor of two, in stretches that last from a fraction of a second to tens of
seconds.  Repeating passes does not average that away within a run of a
minute: raw pass times of one seed spread by 20% between runs.

While started, the probe interrupts the process every ``INTERVAL_S`` seconds
(SIGALRM) and times a fixed reference kernel, unrelated to mugl, of the same
kinds of work as the workloads: numpy sorts of small and large arrays, and
formatting and parsing of floats as text.  That splits the measured time
into segments, each followed by one reference timing.
``speed_adjusted(start, end)`` is the probe-free time of
[start, end] with every segment scaled by ``QUIET_REFERENCE_S`` / (the
reference timing at the segment's end): an estimate of the time the
interval takes on a quiet machine, one on which the reference kernel takes
``QUIET_REFERENCE_S``.  Each probe costs about 1% of the time it interrupts.
``speed_factor`` gives the same scale for a stretch just finished, from a
few reference timings taken right after it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
# Reference kernel time on an otherwise idle core of a 2.0 GHz Xeon VM.  It
# only sets the unit: it is the same for every run and every commit.
QUIET_REFERENCE_S = 1.5e-3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random(190)
        self._large = rng.random(20_000)
        # (segment start, segment end, reference seconds timed at its end)
        self.segments: list[tuple[float, float, float]] = []
        self._last = None

    def _reference(self) -> float:
        small, large = self._small, self._large
        start = time.perf_counter()
        for _ in range(100):
            np.maximum(np.sort(small) - 0.1, 0.0).cumsum()
            small @ small
        for _ in range(3):
            np.sort(large).cumsum()
        for _ in range(2):
            text = ",".join(f"{v:.17g}" for v in small.tolist())
            sum(float(v) for v in text.split(","))
        return time.perf_counter() - start

    def _probe(self, *_) -> None:
        start = time.perf_counter()
        self.segments.append((self._last, start, self._reference()))
        self._last = time.perf_counter()

    def start(self) -> None:
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def speed_factor(self) -> float:
        """QUIET_REFERENCE_S / the median of five reference timings now."""
        return QUIET_REFERENCE_S / statistics.median(self._reference() for _ in range(5))

    def speed_adjusted(self, start: float, end: float) -> float:
        total = 0.0
        for a, b, r in self.segments:
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                total += overlap * QUIET_REFERENCE_S / r
        return total
