"""Machine-speed sampling, so that timings on a shared machine can be compared.

On a small shared VM the speed of one core drifts by tens of percent over
seconds to minutes, with the same program doing the same work.  While a
measurement runs, a SIGALRM handler in the main thread (no extra thread
or process) times a fixed pure-Python kernel every ``INTERVAL`` seconds.
A timing is reported in reference seconds: the elapsed time minus the
time spent in the kernel, times the mean of ``REF_S / sample``.  On a
machine where the kernel takes ``REF_S``, a reference second is a
second.  The kernel touches nothing of matgraph, so a change to the
program moves reference seconds as it moves wall-clock seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.05
REF_S = 150e-6
_MASK = (1 << 256) - 1
_M = (1 << 255) | 0x9E3779B97F4A7C15


def _step(acc, i):
    return (acc + ((_M * (i + 7)) >> 199)) & _MASK


def kernel():
    """Big-integer arithmetic, calls and dict stores, as mpmath's pure-Python core does."""
    table = {}
    acc = 0
    for i in range(400):
        acc = _step(acc, i)
        table[i & 31] = acc
    return acc


class SpeedSampler:
    """Context manager timing its body in reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.elapsed = 0.0

    def _sample(self, *_):
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self.samples = []
        self._prev = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = time.perf_counter() - self._t0
        self._sample()
        signal.signal(signal.SIGALRM, self._prev)
        return False

    @property
    def busy(self) -> float:
        """Seconds the kernel ran inside the timed body."""
        return sum(self.samples[1:-1])

    @property
    def factor(self) -> float:
        """Machine speed over the body, relative to the reference."""
        return statistics.fmean(REF_S / s for s in self.samples)

    def reference_seconds(self) -> float:
        return (self.elapsed - self.busy) * self.factor
