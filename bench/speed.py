"""The host's momentary speed, sampled while the benchmark runs.

The reference host is a shared KVM guest whose vCPUs each drift between
speed states up to about twice apart, from tenths of a second to minutes,
independently of each other.  A run cannot outlast the slow drift, so the
benchmark divides it out: it times a fixed pure-Python kernel in the same
process as the work being measured, and scales each measured time to the
speed at which the kernel takes ``REFERENCE_S``.  The kernel uses what the
package spends its time on (Fraction arithmetic, small-integer dict keys),
and it is benchmark code: no change to the package alters it.

``SpeedProbe`` samples on a wall-clock timer (SIGALRM), so the samples fall
uniformly in time over the work they scale; the time the samples take is
kept apart, so the work's own timings exclude it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# the kernel's time on the reference host in its fast state
REFERENCE_S = 0.0016
PERIOD_S = 0.05


def kernel() -> Fraction:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 300):
        acc += Fraction(i % 97 - 40, i % 89 + 1) * Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i * i
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(samples: list) -> float:
    """Factor that turns a time measured over ``samples`` into seconds at the
    reference speed: the mean of the sampled speeds, relative to it."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class SpeedProbe:
    """Times the kernel every ``PERIOD_S`` seconds of wall time, between two
    bytecodes of whatever runs.  ``spent`` is the time the samples took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        took = time_kernel()
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
