"""Host speed, sampled while a pass runs, so that times can be scaled to a
reference speed.

The benchmark runs on shared virtual machines whose speed moves by up to
half again within seconds and drifts by 15-30% over minutes.  Raw times
of the same code then spread across runs by more than a change is
allowed to cost.  So every untraced pass times a fixed probe --
pure-Python dict and integer work plus a numpy integer pass, owned by the
benchmark and not by the package -- every INTERVAL_S seconds from a
SIGALRM handler, and leaves the time spent in the handler out of its own
times.  A time t measured while the median probe took p seconds is
reported as t * (REFERENCE_S / p) ** ELASTICITY: the time it would have
taken on a host that runs the probe in REFERENCE_S.  Raw times and
scales are kept in the detail of each run.

ELASTICITY is how much the workloads' times move with the probe's.  Over
20 runs of each workload on the host the baseline was recorded on
(log-log slope of pass time against median probe time, correlation about
0.9 throughout) it was 0.96 for algebra, which is pure Python like the
probe, and 0.64, 0.68 and 0.68 for structure, tables and setup, whose
numpy and BLAS work runs partly on both cores.  One value serves all.

The handler runs in the pass's own thread between bytecodes; it starts
no thread or process.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
ELASTICITY = 0.75
# A fixed probe time: close to the probe's median on the host the
# baseline was recorded on (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy
# 2.4.6).  Any constant would do, as long as runs that are compared use
# the same one.
REFERENCE_S = 0.0025

_ARRAY = np.arange(1 << 16, dtype=np.int64)
_OUT = np.empty_like(_ARRAY)


def probe() -> float:
    """Seconds one fixed piece of work takes now.

    The collector is paused, so that a collection of the pass's own heap
    is not timed, and the numpy part writes into a preallocated array.
    """
    clock = time.perf_counter
    collecting = gc.isenabled()
    gc.disable()
    t0 = clock()
    table = {}
    for i in range(5000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i * 7 % 13
    np.multiply(_ARRAY, 31, out=_OUT)
    np.remainder(_OUT, 65521, out=_OUT)
    elapsed = clock() - t0
    if collecting:
        gc.enable()
    return elapsed


class Sampler:
    """Probes the host every INTERVAL_S seconds while started.

    ``spent`` is the wall time taken by the handler so far; subtract its
    change from a measured interval to leave the probes out.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, *_):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def scale(self) -> float:
        """Factor that turns a time measured while sampling into reference time."""
        return scale(statistics.median(self.samples))


def scale(probe_s: float) -> float:
    """Factor that turns a time measured while the probe took probe_s
    seconds into reference time."""
    return (REFERENCE_S / probe_s) ** ELASTICITY
