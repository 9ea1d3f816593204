"""Host-speed calibration: a fixed kernel timed next to every job.

The hosts this benchmark runs on change speed by up to 2x for seconds at a
time (shared cores), which moves every job time together. The kernel below
mixes the operation types the library spends its time in (small numpy
operations inside a Python loop, scalar float arithmetic, a vector sweep)
and is the benchmark's own code, so no library change can move it. The kernel
is timed between jobs and, through :class:`SpeedSampler`, every
``INTERVAL_S`` inside them. A job's *calibrated* seconds are its seconds
(the samples inside it removed) times the mean host speed around and during
it, a speed being ``REFERENCE_S`` over one kernel time: the time the job would
take on a host where the kernel takes ``REFERENCE_S``. The mean, not the
median, because a job's time is its work over the speed averaged over its
wall time, and a sample slowed by preemption adds little to a mean of speeds.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 2.0e-3
INTERVAL_S = 0.05


def _kernel() -> float:
    state = np.stack([np.ones(3), np.zeros(3), np.zeros(3)])
    for _ in range(200):
        state = state + 0.001 * np.stack([state[1], state[0], -state[2]])
    acc = 0.0
    for i in range(3000):
        acc += (i % 7) * 0.5
    wave = np.linspace(0.0, 1.0, 4096)
    for _ in range(5):
        wave = np.sin(wave) + 0.1 * wave
    return acc + float(state[0, 0] + wave[-1])


def kernel_seconds(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Times the kernel from a SIGALRM handler every ``INTERVAL_S`` of wall time.

    ``samples`` holds the ``(start, end)`` wall-clock window of every kernel
    run, so callers can take the samples that fell inside an interval they
    timed, both as speed readings and as time to remove from the interval.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        start = perf_counter()
        _kernel()
        self.samples.append((start, perf_counter()))

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, start: float, end: float) -> list[float]:
        """Kernel times of the samples taken between ``start`` and ``end``."""
        return [b - a for a, b in self.samples if start <= a and b <= end]
