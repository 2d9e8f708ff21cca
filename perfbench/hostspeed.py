"""Host-speed probe: a fixed reference kernel, timed at short intervals while
the benchmark measures, so that the program's times can be scaled to one
nominal host speed.

On a shared host the speed of a virtual CPU drifts by up to 2x over tens of
seconds, through contention from other tenants. Process CPU time drifts with
wall time, so it does not help. Times of the program's own code and of this
kernel, taken in the same second on the same CPU, move together (correlation
0.95-0.99 with set-up build times over 10 s windows on a 2-vCPU Xeon VM),
while times taken a few seconds apart, or on the other CPU, do not. So the
kernel runs from a timer signal in the measuring thread itself, every
``INTERVAL_S`` seconds, and the time it takes is removed from the measured
interval.

The kernel mixes plain interpreter work with tiny numpy operations, the mix
the program spends its time in. It is part of the benchmark, not of the
program, so a change to the program does not change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
PY_ITERATIONS = 4000
NUMPY_ITERATIONS = 250
# Kernel time at the nominal host speed. It fixes the unit of the scaled
# times only; a parent and a change are compared with the same constant.
NOMINAL_KERNEL_S = 3.0e-3


def kernel() -> float:
    """Interpreter work on a small dict, then tiny numpy operations. Either
    half alone tracks the program's speed less closely than the two together
    (pass-time spread after scaling 0.05-0.06 alone, 0.03 together)."""
    counts: dict[int, float] = {}
    for i in range(PY_ITERATIONS):
        counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5
    acc = 0.0
    for i in range(NUMPY_ITERATIONS):
        v = np.array([i * 0.1, 1.0])
        m = np.outer(v, v)
        acc += float(np.linalg.norm(m @ v))
    return acc


class HostSpeed:
    """While entered, times the kernel every ``INTERVAL_S`` seconds.
    ``samples`` holds each kernel time; ``spent`` their sum, which callers
    subtract from the wall time of what they measured."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        self.spent += duration

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first_sample: int = 0) -> float:
        """Nominal over measured kernel time, from the samples taken since
        ``first_sample``: multiply a wall time by it to get nominal seconds.
        1.0 when no sample was taken."""
        samples = self.samples[first_sample:]
        return NOMINAL_KERNEL_S / statistics.median(samples) if samples else 1.0
