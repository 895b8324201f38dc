"""A reference clock: the machine's current speed, sampled during an operation.

The benchmark box is a shared virtual machine whose speed changes by up to
about 2x over seconds to minutes, as other tenants come and go.  The wall
time of an operation carries that change; its time in units of a fixed
reference computation, measured in the same moments, mostly does not.

While ``sampling`` is active, a wall-clock timer interrupts the process
every ``PERIOD_S`` seconds and times one run of ``kernel``: small numpy
array operations and a short pure-Python loop, the two kinds of work the
workloads do.  The samples interleave with the operation at that period, so
they see the machine as the operation does.  ``ref_units`` turns an
operation's wall time into reference units: its own time (the wall time
less the time spent in samples) over the median sample time.  The median,
not the mean, because a sample now and then waits on an interrupt.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.02

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_B = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))


def kernel() -> float:
    acc = 0.0
    for _ in range(2):
        c = _A @ _B
        acc += float(np.abs(np.exp(1j * c.real) * _B).max())
        table = {}
        for i in range(40):
            z = complex(i, 1) * 0.5
            table[i] = abs(z * z.conjugate())
        acc += sum(table.values())
    return acc


class RefClock:
    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    @contextmanager
    def sampling(self):
        """Collect samples into a fresh ``self.samples`` for the length of the block."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def ref_units(self, wall_s: float) -> float:
        """Wall time of the sampled block, less the samples, in median sample times."""
        return (wall_s - sum(self.samples)) / statistics.median(self.samples)
