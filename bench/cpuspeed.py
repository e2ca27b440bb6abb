"""Rescale measured times to a nominal CPU speed.

On a shared virtual machine a vCPU runs, for seconds to minutes at a time,
up to twice as slowly as at other times, so raw wall times of the same work
spread far beyond any useful regression bound.  `CpuSpeed` pins the process
to one CPU and, from a background thread, times a fixed probe loop on that
CPU every 0.1 s.  `scale(start, end)` is the factor that turns a wall time
measured over [start, end] into the time the same work takes when the probe
runs at its nominal duration.

The probe mixes the kinds of work the workloads do: object loads scattered
over a few megabytes, dict updates with small allocations, and NumPy calls on
integrand-sized arrays.  A pure integer loop slows down less than the
workloads in the slow periods; this mix follows them more closely.  The probe
uses no gammatrop code, so a change to the package cannot move it.  Each
probe costs about 1 ms of the measured thread's time per 100 ms (~1%).
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import threading
import time

import numpy as np

NOMINAL_PROBE_S = 1.0e-3  # the probe's duration on a quiet CPU of the development host
PERIOD_S = 0.1
WINDOW_S = 0.5  # probes this close to a measured span smooth out single-probe noise


def _probe_loop(floats: list[float], vector: np.ndarray) -> float:
    total = 0.0
    for x in floats:
        total += x
    table = {}
    for i in range(3_000):
        table[i & 1023] = (i, total)
    for _ in range(130):
        np.exp(np.minimum(-4.6 * (1.0 + 0.3 * vector), 700.0))
    return total


class CpuSpeed:
    """Context manager that probes the CPU's speed while it is open."""

    def __init__(self):
        self._times: list[float] = []  # probe midpoints, increasing
        self._costs: list[float] = []  # loop durations
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, daemon=True)
        self._affinity = os.sched_getaffinity(0)
        floats = [float(i) for i in range(100_000)]
        random.Random(0).shuffle(floats)
        self._floats = floats[:7_000]  # scattered over all 100k objects
        self._vector = np.linspace(0.1, 1.0, 15)

    def _probe(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            start = clock()
            _probe_loop(self._floats, self._vector)
            end = clock()
            self._times.append(0.5 * (start + end))
            self._costs.append(end - start)

    def __enter__(self) -> "CpuSpeed":
        # the probe must share the measured thread's CPU; the thread
        # inherits this affinity when it starts
        os.sched_setaffinity(0, {min(self._affinity)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def scale(self, start: float, end: float) -> float:
        """Mean of nominal over actual probe duration around [start, end].

        For a span much longer than the probe period this weights each
        stretch of the span by the speed measured in it.
        """
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S)
        if lo == hi:  # no probe that close: take the nearest on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self._times))
        return statistics.fmean(NOMINAL_PROBE_S / cost for cost in self._costs[lo:hi])
