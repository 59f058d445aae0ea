"""Machine-speed reference for the benchmark's timings.

On a shared machine the CPU speed changes all the time: a fixed integer
loop takes 12 ms at one moment and 18 ms the next, flipping between such
levels within a second, and the share of time spent at each drifts over
minutes.  That is more than the changes the benchmark must resolve, and
more than longer runs average away.  While the worker's timed loop runs, a
timer signal therefore times a short loop every ``SAMPLE_EVERY_S``
(``Calibration.sampling``), and each operation's timings are scaled by
``REFERENCE_S / mean loop time`` over the samples within ``WINDOW_S`` of
it: a timing reads as the wall time on a machine that runs the loop in
``REFERENCE_S``.  The time the samples themselves took is taken off every
interval they fell in.  The mean, not the median, because the median of
samples from two levels jumps to whichever level holds the majority, while
the mean follows the share of time spent at each.

With samples taken only before each call, the ten-seed spread of ``check``
(identical work in every run) was 0.17-0.22; with samples inside its calls
it was 0.03-0.04.  The raw timings are printed on the env line.
Each interpreter start of ``setup_s`` is scaled by the loop timed right
before and after it (see run.py).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from bisect import bisect_left, insort

LOOP_ITERATIONS = 150_000
# the loop's time on the 2-vCPU machine the benchmark was defined on
REFERENCE_S = 0.012
# a fifth of the loop (~2.4 ms) every 0.2 s: about 1 % of the run
SAMPLE_ITERATIONS = 30_000
SAMPLE_EVERY_S = 0.2
# samples this close to an operation set its speed factor
WINDOW_S = 0.5


def loop_s(iterations: int = LOOP_ITERATIONS) -> float:
    """Time of the loop, scaled to ``LOOP_ITERATIONS`` iterations."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1, iterations):
        s = (s * 31 + i) % 1000003
    return (time.perf_counter() - t0) * LOOP_ITERATIONS / iterations


class Calibration:
    """Loop samples taken during one run."""

    def __init__(self) -> None:
        # (perf_counter when it began, wall time it took, loop time scaled
        # to LOOP_ITERATIONS), in order of start: a sample the handler
        # takes while another is being taken is inserted before it
        self.samples: list[tuple[float, float, float]] = []

    def _take(self, iterations: int) -> None:
        t0 = time.perf_counter()
        loop = loop_s(iterations)
        insort(self.samples, (t0, time.perf_counter() - t0, loop))

    def _between(self, a: float, b: float) -> list[tuple[float, float, float]]:
        return self.samples[bisect_left(self.samples, (a,)):
                            bisect_left(self.samples, (b,))]

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample from a SIGALRM handler every ``SAMPLE_EVERY_S``
        while the block runs."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame:
                                 self._take(SAMPLE_ITERATIONS))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy_between(self, a: float, b: float) -> float:
        """Wall time of the samples that began in [a, b)."""
        return sum(busy for _, busy, _ in self._between(a, b))

    def factor(self, a: float, b: float) -> float:
        """Speed factor over [a, b], from the samples within ``WINDOW_S``
        of it; the run's speed if there are none."""
        near = [loop for _, _, loop in self._between(a - WINDOW_S,
                                                       b + WINDOW_S)]
        return REFERENCE_S / statistics.mean(near) if near else self.speed()

    def speed(self) -> float:
        """REFERENCE_S / mean loop time of the run so far; above 1 on a
        faster machine."""
        if not self.samples:
            for _ in range(3):
                self._take(LOOP_ITERATIONS)
        return REFERENCE_S / statistics.mean(loop for _, _, loop
                                             in self.samples)
