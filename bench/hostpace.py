"""How fast the shared host runs this process, and timings with that taken out.

On a shared virtual machine the same work runs 1.2-2x slower for seconds at
a time, as other tenants load the host; the guest cannot see it, and the
process's CPU time grows with its wall time. Five times a second a SIGALRM
handler times two fixed pieces of reference work: dictionary counting and
sorting in Python, and boolean matrix work in numpy, the two kinds of work
the pipeline is made of. The handler runs in the main thread between
bytecodes, so no thread is started.

A probe's slowdown is the geometric mean of the two pieces' times, each over
its time on an unloaded host. A timing of the pipeline is turned into
seconds on an unloaded host: the probes that ran inside it are subtracted,
and the rest is divided by the median slowdown of the probes from one
interval before its start to one interval after its end. Across 15 s
stretches of a loaded host, the median of CASI, MDL, kNN and tree-walk
timings normalized this way spread by 3-5% (interquartile range over
median), where the raw medians spread by 11-16% and the fastest timing by
66-77%.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2
# Each reference piece on an unloaded vCPU of a 2-vCPU VM, Python 3.11 and
# numpy 2.4. They are fixed constants, so that normalized times stay
# comparable between runs and between versions of the program.
PYTHON_S = 0.85e-3
NUMPY_S = 1.25e-3

_MATRIX = np.random.default_rng(0).random((320, 480)) < 0.02


def python_work() -> int:
    counts: dict = {}
    for i in range(2500):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def numpy_work() -> int:
    facts = np.zeros(_MATRIX.shape[0], dtype=bool)
    facts[:8] = True
    for _ in range(6):
        fired = ~(_MATRIX & ~facts[:, np.newaxis]).any(axis=0)
        facts = facts | (_MATRIX @ fired)
    return int(facts.sum())


class HostPace:
    """Context manager that probes the host; outside it nothing is scaled."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.logs: list[float] = []     # log slowdown of each probe
        self._previous = None

    def probe(self, *_):
        start = perf_counter()
        python_work()
        middle = perf_counter()
        numpy_work()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.logs.append((math.log((middle - start) / PYTHON_S)
                          + math.log((end - middle) / NUMPY_S)) / 2)

    def slowdown(self, start: float, end: float) -> float:
        """Median probe slowdown around [start, end]; 1 without probes."""
        if not self.starts:
            return 1.0
        lo = bisect.bisect_left(self.starts, start - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, end + INTERVAL_S)
        if lo >= hi:     # no probe near: take the one closest in time
            after = lo < len(self.starts) and (
                lo == 0 or self.starts[lo] - end < start - self.starts[lo - 1])
            lo = lo if after else lo - 1
            hi = lo + 1
        return math.exp(statistics.median(self.logs[lo:hi]))

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` without the probes inside it, on an unloaded host."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        probing = sum(self.ends[i] - self.starts[i] for i in range(lo, hi)
                      if self.ends[i] <= end)
        return (end - start - probing) / self.slowdown(start, end)

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
