"""Host-speed sampler: how fast this machine runs a fixed probe, sampled
throughout a timed run.

The benchmark host is a few vCPUs of a shared machine whose throughput
drifts by tens of percent over minutes, and CPU time moves with wall
time, so the slowdown is charged to the process itself.  :class:`Pace`
runs a short fixed probe (small NumPy operations plus pure-Python
arithmetic, like the simulator's inner loop, but none of the program's
code) from a ``SIGALRM`` timer every :data:`INTERVAL_S` while the
workload runs, and records the probe's thread CPU time.  Thread CPU
time leaves out time the probe waited for this machine's own scheduler,
so distributed workers competing for the cores do not read as a slow
host.

:meth:`Pace.scale` is the mean probe time over the time the reference
host takes (:data:`REFERENCE_PROBE_S`): 1.25 means the host ran the
probe 25% slower than the reference host while the workload ran.  The
probes are evenly spaced in time, so their mean follows the slowdown
averaged over the run, bursts included; a median or lower quantile
misses bursts and over- or under-corrects.  ``child.py`` takes the
probes' own time out of the wall and CPU times and divides them by the
scale, so a change in the program moves them and a change in the
host's speed mostly does not.

Measured over repeated runs of one seed on the reference host, the
scaled wall time varied 2 to 4 times less than the measured one (CV
2.7% against 9.5% on ``fig4-paper``, 2.1% against 8.0% on
``matrix-8x8``, 3.3% against 5.7% on ``matrix-8x8-distributed``).  On
the distributed workload the probe shares the cores with the workers,
whose load adds to the host's, so ``child.py`` scales set-up by probes
taken before the run instead.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between probes.
INTERVAL_S = 0.1
#: Mean thread CPU time of one probe on the reference host (2-vCPU
#: x86_64, Python 3.11, NumPy 2.4) during a quiet ``matrix-8x8`` run.
REFERENCE_PROBE_S = 0.0020

_A = np.arange(64, dtype=np.float64)
_B = np.arange(64, dtype=np.int64) % 7


def probe() -> float:
    """One fixed unit of work; returns a value so it is not optimised out."""
    a, b = _A.copy(), _B
    total = 0.0
    for i in range(280):
        a = a * 0.5 + b
        mask = a > i % 5
        total += float(a[mask].sum()) + int(np.count_nonzero(b == i % 7))
        for j in range(30):
            total += (i * j) % 3
    return total


class Pace:
    """Samples :func:`probe` from a timer while started, or on demand."""

    def __init__(self):
        #: (start, wall s, CPU s) of each sample, both probe calls.
        self.samples: list[tuple[float, float, float]] = []
        #: Thread CPU seconds of each timed probe call.
        self.timed: list[float] = []
        self._saved = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        # The first call refills the caches the workload evicted, so the
        # timed one measures the host rather than the workload's
        # footprint.
        probe()
        cpu_mid = time.thread_time()
        probe()
        cpu_end = time.thread_time()
        self.timed.append(cpu_end - cpu_mid)
        self.samples.append((start, time.perf_counter() - start,
                             cpu_end - cpu_start))

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def overhead(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and CPU seconds of the samples started between ``t0`` and
        ``t1`` (``perf_counter`` times)."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        return sum(s[1] for s in inside), sum(s[2] for s in inside)

    def scale(self) -> float:
        """Mean timed probe over the reference host's (1.0 when no probe
        ran)."""
        if not self.timed:
            return 1.0
        return statistics.fmean(self.timed) / REFERENCE_PROBE_S
