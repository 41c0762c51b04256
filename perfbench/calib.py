"""Host-speed sampling for the end-to-end timings.

On a shared virtual machine each virtual CPU runs, for seconds to
minutes at a time, up to twice as slowly as at other times, whatever
the program does; the process's CPU time stretches with its wall time,
so neither can be compared between runs as it is.  The benchmark
therefore runs on one CPU (``pin``) and a thread of its own process
samples that CPU's speed throughout the run: every ``PERIOD_S`` it times
a fixed pure-Python kernel (small objects, dicts, string formatting and
sorting) in thread CPU time.  A measured interval is reported in
*reference seconds*::

    ref_s = wall_s * REF_S / (mean kernel time sampled during it)

the time the interval would have taken at the CPU speed at which the
kernel takes ``REF_S``.  The kernel does not depend on the program, so a
change to the program moves reference times as it moves wall times.
The sampler costs about 2% of the CPU; the raw wall times and the
speed factors are kept in each run's context line.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left, bisect_right
from statistics import mean
from typing import List

#: seconds between two speed samples
PERIOD_S = 0.05
#: kernel CPU seconds at the reference speed (about what it takes on a
#: 2.1 GHz Xeon virtual CPU, so reference and wall seconds are alike)
REF_S = 0.001


def pin() -> int:
    """Restrict this process and its future children to one CPU.

    The highest-numbered CPU it may use: CPU 0 takes most interrupts.
    Returns that CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel() -> int:
    """The speed probe: the same pure-Python work on every call."""
    rows = {}
    for i in range(800):
        key = f"case{i:04d}:{i * 7 % 13}"
        rows[key] = (i, key)
    return len(sorted(rows, key=lambda k: k[::-1]))


class HostSpeed:
    """A thread that samples the CPU's speed while the context is open."""

    def __init__(self) -> None:
        self.times: List[float] = []  # perf_counter at each sample
        self.kernel_s: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="host-speed")

    def __enter__(self) -> "HostSpeed":
        kernel()  # first call outside the samples
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.thread_time
        while not self._stop.wait(PERIOD_S):
            c0 = clock()
            kernel()
            self.kernel_s.append(clock() - c0)
            self.times.append(time.perf_counter())

    def factor(self, t0: float, t1: float) -> float:
        """``REF_S`` over the mean kernel time sampled in ``[t0, t1]``
        (``perf_counter`` seconds, which every process shares)."""
        found = self.kernel_s[bisect_left(self.times, t0):
                              bisect_right(self.times, t1)]
        if not found:
            raise RuntimeError(f"no host-speed sample in [{t0}, {t1}]")
        return REF_S / mean(found)
