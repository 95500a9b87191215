"""Machine-speed sampling, to take the host's speed swings out of timings.

On a shared 2-core host the same single-threaded work runs up to 1.5x
slower for seconds at a time (contention from other tenants, invisible to
this process: CPU time tracks wall time).  `SpeedSampler` runs a fixed
snippet of pure-Python work every PERIOD_S seconds from a SIGALRM handler,
so the snippet runs in the measured thread, in the middle of the measured
work.  The snippet does not touch mfvc, and the cyclic garbage collector is
off while it runs, so the program's garbage is never collected inside it.

`reference_seconds(t0, t1)` converts a wall-clock interval into seconds at
reference speed.  Around each sample, the speed is REFERENCE_S over the
median snippet duration within WINDOW_S; the interval is integrated at that
speed, less the sampler's own time (about 2 % of the wall clock).
REFERENCE_S is about the snippet's duration, run from the sampler, in the
fast phases of a 2-core x86-64 host (Python 3.11, 2.1 GHz), where runs
measured slowdowns from 1.05 to 1.8.

The correction is not exact: the snippet slows down more than the
workloads in slow phases, so a run in a quiet phase reads up to ~6 %
higher than one in a busy phase.  The wall-clock figures stay in the
report.
"""

import gc
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
WINDOW_S = 0.25  # the host's fast and slow phases last about a second or more
REFERENCE_S = 2.5e-4

_ROWS = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 3) for j in range(5)] for i in range(4)]


class _Elem:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key


def snippet():
    """Exact elimination, tuple-keyed dict products and small objects: the
    kinds of work mfvc's hot paths do."""
    mat = [list(r) for r in _ROWS]
    for c in range(4):
        pv = mat[c][c]
        if pv == 0:
            continue
        mat[c] = [a / pv for a in mat[c]]
        for i in range(4):
            if i != c and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    prod = {}
    for u in range(6):
        for v in range(6):
            key = (u + v, (u * v) % 5)
            prod[key] = prod.get(key, 0) + u - v
    elems = [_Elem((k, k % 3)) for k in range(40)]
    return len(prod) + len(elems) + len(mat)


class SpeedSampler:
    """Samples the snippet's duration while started; see the module docstring."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None
        self._rate = array("d")
        self._cum = array("d")

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t = perf_counter()
        snippet()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)
        if collecting:
            gc.enable()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _rates(self):
        """Per sample, the speed relative to reference: REFERENCE_S over the
        median snippet duration among the samples within WINDOW_S."""
        if len(self._rate) != len(self.starts):
            st, du = self.starts, self.durations
            self._rate = array("d", (
                REFERENCE_S / statistics.median(
                    du[bisect_left(st, t - WINDOW_S):bisect_right(st, t + WINDOW_S)])
                for t in st))
            cum = array("d", [0.0])
            for j in range(len(st) - 1):
                cum.append(cum[-1] + max(0.0, st[j + 1] - st[j] - du[j]) * self._rate[j])
            self._cum = cum
        return self._rate

    def reference_time(self, t):
        """Reference seconds from the first sample to perf_counter time t.

        The speed holds from one sample to the next (and before the first);
        the snippet's own run after each sample counts for nothing."""
        st = self.starts
        if not st:
            return t
        rate = self._rates()
        k = bisect_right(st, t) - 1
        if k < 0:
            return (t - st[0]) * rate[0]
        return self._cum[k] + max(0.0, t - st[k] - self.durations[k]) * rate[k]

    def reference_seconds(self, t0, t1):
        return self.reference_time(t1) - self.reference_time(t0)

    def slowdown(self, t0, t1):
        """Mean slowdown over [t0, t1]: wall time over reference time."""
        ref = self.reference_seconds(t0, t1)
        return (t1 - t0) / ref if ref > 0 else 1.0
