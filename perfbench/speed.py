"""Machine-speed probe: times a fixed kernel while a repetition runs.

The benchmark's machine switches, from one moment to the next, between a
fast state and one about 1.6x slower (a shared host), and the share of
slow time changes from minute to minute. Raw timings therefore measure the
host as much as the program. A ``Probe`` samples the machine's speed
throughout a repetition: every ``EVERY_S`` of wall time a SIGALRM handler
runs a fixed pure-Python kernel and keeps its start and end. ``Timeline``
then turns any interval of the repetition into reference time:

    reference = (interval - probe time inside it) x mean(REF_NS / kernel)

where the mean runs over the probes in and next to the interval. A
kernel time of ``REF_NS`` is the machine's fast state, so reference time
is the time the interval would have taken had the machine stayed in that
state. The kernel is part of the benchmark, not of riskcal, so a slower
program reads slower in reference time just as it does in wall time.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter_ns

EVERY_S = 0.02
KERNEL_N = 5_000
# The kernel's duration in the fast state of the 2-vCPU Xeon the benchmark
# was tuned on (Python 3.11); the slow state reads about 0.9 ms.
REF_NS = 550_000


def kernel(n: int = KERNEL_N) -> float:
    acc, xs = 0.0, [0.0] * 64
    for i in range(n):
        j = i & 63
        xs[j] = xs[j] * 0.5 + i * 1e-3
        acc += xs[j] if acc < 1e6 else -acc
    return acc


class Probe:
    """Samples while its ``with`` block runs. ``marks`` holds
    start, end, start, end, ... of every kernel run, in perf_counter ns.
    The handler runs between bytecodes of the main thread, so a probe
    never splits a timestamp the benchmark reads there. It may run in the
    middle of an import; the kernel touches no module, so that is safe."""

    def __init__(self):
        self.marks = array("q")

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def _fire(self, signum, frame):
        k0 = perf_counter_ns()
        kernel()
        self.marks.append(k0)
        self.marks.append(perf_counter_ns())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Timeline:
    """Reference time of intervals of one repetition, from its probes."""

    def __init__(self, marks):
        import numpy as np

        m = np.asarray(marks, dtype=np.int64).reshape(-1, 2)
        if not len(m):
            raise ValueError("the probe never ran")
        self.starts = m[:, 0]
        dur = (m[:, 1] - m[:, 0]).astype(float)
        self._busy = np.concatenate([[0.0], np.cumsum(dur)])
        self._speed = np.concatenate([[0.0], np.cumsum(REF_NS / dur)])

    def _parts(self, a, b):
        """(work ns, mean speed) of the intervals [a, b): the interval
        without the probe time inside it, and the mean of REF_NS / kernel
        over the probes inside it plus the last one before and the first
        one after it."""
        i0 = self.starts.searchsorted(a)
        i1 = self.starts.searchsorted(b)
        work = b - a - (self._busy[i1] - self._busy[i0])
        lo = (i0 - 1).clip(0)
        hi = i1.clip(None, len(self.starts) - 1)
        return work, (self._speed[hi + 1] - self._speed[lo]) / (hi - lo + 1)

    def reference_ns(self, a, b):
        """Reference ns of the intervals [a, b) (ints or int arrays)."""
        work, speed = self._parts(a, b)
        return work * speed

    def mean_speed(self, a: int, b: int) -> float:
        """Mean machine speed over [a, b); 1 is the fast state."""
        return float(self._parts(a, b)[1])
