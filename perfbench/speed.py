"""Wall time normalised to a reference CPU speed.

The benchmark shares a few vCPUs of a host with other machines, and their
load slows this process for seconds to minutes at a time: the same solve
took 1.0 to 1.8 times its best time within a few minutes, CPU time rose
with wall time (the slowdown is not time stolen from the process but
slower execution), and the machine exposes no instruction counter.  No
statistic over a run's own timings removes a slowdown that outlasts it.

`SpeedSampler` measures the slowdown while it happens.  A real-time
interval timer interrupts the process every `INTERVAL_S`; the handler runs
`kernel()`, a fixed loop of interpreter work and small numpy calls (the mix
the library's own inner loops have), and records how long it took.  A
timed interval [t0, t1] is then reported as the time it would have taken
at the speed where the kernel takes `REF_KERNEL_S`:

    normalised = (t1 - t0 - kernel time inside it) * mean(REF_KERNEL_S / d_i)

over the kernel durations d_i sampled inside the interval.  The sampled
speed is time-weighted, so work done in a slow stretch is scaled by that
stretch's slowdown.  The kernel costs about 1.5% of the interval and its time
is subtracted.  `REF_KERNEL_S` only fixes the unit: it is a round value
near the kernel's best time inside the handler on the 2-vCPU Xeon (2.1 GHz,
Python 3.11) the benchmark was tuned on; any other machine compares its
runs with each other in the same unit.

The handler runs between bytecodes of the main thread, so a long call into
native code delays a sample rather than splitting it; it touches no state
of the program.  Of the kernels tried, this mix tracked the slowdown of
solves, audits and finite-difference checks best: over four minutes in
which their raw times spread by 0.29 to 0.37 (distance between quartiles
over the median), their normalised times spread by 0.05 to 0.08.  A pure
interpreter loop did slightly worse, and a dense 60x60 matrix product
about three times worse.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
PY_ITERS = 500
NP_ITERS = 60
# about the best time of kernel() in the handler on the reference machine
REF_KERNEL_S = 2.0e-4


def kernel() -> float:
    """Float math, calls and dict stores, then small-vector numpy calls."""
    x = 0.0
    d = {}
    for i in range(PY_ITERS):
        x += math.sin(i * 1e-3)
        d[i & 63] = x
    v = np.ones(6)
    for _ in range(NP_ITERS):
        v = v * 0.5 + np.dot(v, v) * 1e-3
    return x + float(v[0])


class SpeedSampler:
    """Samples the kernel's duration every INTERVAL_S while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] at the reference speed, kernel time excluded.

        An interval too short to hold a sample takes the speed of the
        nearest samples before it.
        """
        i = bisect.bisect_left(self.starts, t0)
        inside = self.durations[i : bisect.bisect_left(self.starts, t1)]
        speed = inside or self.durations[max(0, i - 3) :][:3]
        if not speed:
            raise RuntimeError("no speed sample yet: enter the sampler before timing")
        return (t1 - t0 - sum(inside)) * statistics.fmean(REF_KERNEL_S / d for d in speed)

    def slowdown(self) -> float:
        """Median sampled kernel time over the reference time (1.0 = reference speed)."""
        return statistics.median(self.durations) / REF_KERNEL_S
