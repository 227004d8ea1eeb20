"""Timing scaled to a reference machine speed.

The shared machine the benchmark was built on switches between a fast and
a slow state, up to about 1.6 times slower, in phases of tens of
milliseconds to a minute; thread CPU time moves with wall time, so this is
not time stolen by other guests.  A timed call is therefore measured
together with the machine's speed at that moment: a fixed probe kernel
(plain Python and numpy, no netexp code) is read before the call, after
it, and periodically during it from a SIGALRM handler.  Each stretch of
the call between two readings is scaled by the probe's reference time over
the mean of the readings at its ends, so a call reads the time it would
take on a machine where the probe takes its reference time.  The probes'
own time is not part of the call's time.

The slow state does not slow all code alike: interpreted Python and numpy
calls on tiny arrays slow down about as much as the ``interpreter`` probe,
whole-array numpy passes over tens of thousands of elements about as much
as the ``array`` probe.  Each workload names the probe that matches its
work (fitted on the benchmark's workloads, the slowdown of the call grew
as the probe's to the power 0.8-1.1 with the matching probe, 0.5-0.6 with
the other).

The probe only measures the machine; a change to netexp does not change
it, so a faster or slower netexp still reads faster or slower.
"""
from __future__ import annotations

import signal
import time

import numpy as np

_TINY = np.linspace(0.1, 1.0, 16).reshape(4, 4)
_SHORT = np.linspace(0.0, 1.0, 1024)
_LONG = np.random.default_rng(0).random(16384)


def interpreter_kernel() -> float:
    """About a tenth of a millisecond of interpreted Python, numpy calls on
    tiny arrays and a few passes over a short array."""
    v = _SHORT
    for _ in range(4):
        v = np.sort(np.exp(-0.7 * v) + 0.3 * v)
    a, acc = _TINY, float(v[0])
    for k in range(8):
        b = np.exp(-a * (0.5 + k * 1e-3))
        s = b.sum(axis=1)
        a = b / s[:, None] + 0.01
        acc += float(np.log(s).max())
        acc += sum(x * x for x in (1.0, 2.0, 3.0, acc % 7))
    return acc


def array_kernel() -> float:
    """About a millisecond of whole-array numpy passes and a search over
    16384 elements."""
    v = _LONG
    for _ in range(3):
        v = np.exp(-0.7 * v) + 0.3 * v
        u = np.searchsorted(np.cumsum(v[:256]), v)
    return float(v[0]) + int(u[0])


# kind -> (kernel, reading period during a call in s, reference reading in s)
PROBES = {
    "interpreter": (interpreter_kernel, 0.02, 1.2e-4),
    "array": (array_kernel, 0.05, 1.0e-3),
}


class ScaledClock:
    """Times calls and scales them to the reference speed of one probe
    kind.  Not reentrant; the benchmark times one call at a time from the
    main thread."""

    def __init__(self, kind: str):
        self.kernel, self.period_s, self.reference_s = PROBES[kind]
        self.probes = []  # (start, end, kernel seconds) of each reading, perf_counter seconds
        self.probe_s = 0.0  # time the readings took during the last timed call, edges included

    def _probe(self, *_):
        """One reading: the faster of two kernel runs after a first run
        that brings the kernel back into the caches the call evicted."""
        start = time.perf_counter()
        self.kernel()
        runs_s = []
        for _ in range(2):
            t = time.perf_counter()
            self.kernel()
            runs_s.append(time.perf_counter() - t)
        self.probes.append((start, time.perf_counter(), min(runs_s)))

    def time(self, fn):
        """Run ``fn()``; return (its result, wall seconds without the
        readings, seconds at the reference speed)."""
        self.probes = []
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._probe()
        inner = [p for p in self.probes[1:-1] if t0 <= p[0] < t1]
        wall = scaled = 0.0
        seg_start, last = t0, self.probes[0][2]
        for p_start, p_end, dur in inner + [self.probes[-1]]:
            seg = min(p_start, t1) - seg_start
            wall += seg
            scaled += seg * self.reference_s / ((last + dur) / 2)
            seg_start, last = p_end, dur
        self.probe_s = sum(end - start for start, end, _ in self.probes)
        return result, wall, scaled
