"""Host-speed calibration: wall times scaled to a reference speed.

The benchmark's cores are shared with other tenants of the host.  On
the 2-vCPU Xeon (2.1 GHz) it was tuned on, a core alternates between
two speeds about 1.55x apart, in phases of one to a few seconds, and a
whole 20 s run can sit mostly in either; a refresh and a fixed
pure-Python loop slow down by the same factor.  A raw wall time of one
run therefore says more about which phases the run met than about the
program.

:func:`sample` times a fixed pure-Python loop.  An interval timed
between two samples is scaled by ``REFERENCE_NS`` over the mean of the
two (:func:`scale`): the result is the time the interval would have
taken at the reference speed.  The loop does no I/O and allocates next
to nothing, so it measures only how fast the core runs the interpreter
at that moment.
"""

from __future__ import annotations

import time
from typing import Any, Callable

#: The calibration loop's time on the tuning box in its fast phase, so
#: scaled figures there read like raw ones taken in a quiet phase.
REFERENCE_NS = 330_000
#: Loop timings per sample; the sample is their median.
REPEATS = 3


def _loop() -> int:
    table = {}
    total = 0
    for i in range(2000):
        key = i & 63
        total += table.get(key, 0) + (i * i) % 7
        table[key] = total & 0xFFFF
    return total


def sample() -> int:
    """Nanoseconds the calibration loop takes now (median of three)."""
    clock = time.perf_counter_ns
    times = []
    for _ in range(REPEATS):
        start = clock()
        _loop()
        times.append(clock() - start)
    times.sort()
    return times[REPEATS // 2]


def scale(before: int, after: int) -> float:
    """Factor from wall time to reference time for an interval that ran
    between the samples ``before`` and ``after``."""
    return 2 * REFERENCE_NS / (before + after)


class Stopwatch:
    """Sums the time of calls, each scaled by the host samples taken
    just before and just after it."""

    def __init__(self) -> None:
        self.raw_ns = 0
        self.scaled_ns = 0.0
        self._speed = sample()

    def time(self, call: Callable[[], Any]) -> Any:
        start = time.perf_counter_ns()
        result = call()
        elapsed = time.perf_counter_ns() - start
        after = sample()
        self.raw_ns += elapsed
        self.scaled_ns += elapsed * scale(self._speed, after)
        self._speed = after
        return result
