"""Same-thread speed probe, so timings survive a shared host's speed swings.

This benchmark was defined on a 2-core VM whose cores are shared with
other tenants.  There, a fixed CPU-bound loop ran 15-40% slower for tens
of seconds at a time, so raw wall times of one workload spread by as much
across runs.  A probe on the other core did not track it; a probe on the
same thread did (correlation 0.97 with the request times).

`SpeedProbe` runs a fixed Fraction-and-dict loop, which uses no braidpow
code, from a SIGALRM handler every PERIOD_S on the worker's own thread and
records how long each run took.  `scaled` turns an interval into work
seconds at reference speed: its wall time minus the probe time inside it,
times REF_S over the mean probe duration around it.  On a host running at
the speed where the loop takes REF_S, scaled seconds equal wall seconds.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
REF_S = 0.0006
# The speed of a short interval is estimated over at least this window.
MIN_WINDOW_S = 0.5

_A = tuple(Fraction(7 * i + 1, i + 2) for i in range(12))
_B = tuple(Fraction(3 * i - 5, 2 * i + 1) for i in range(12))


class SpeedProbe:
    def __init__(self, on_sample=None):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        # called with each probe's duration, e.g. to keep it out of a trace
        self.on_sample = on_sample

    def _probe(self, signum, frame) -> None:
        t0 = perf_counter()
        acc: dict = {}
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                acc[i + j] = acc.get(i + j, 0) + x * y
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.seconds.append(dt)
        if self.on_sample is not None:
            self.on_sample(dt)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.seconds[lo:hi]

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran inside [t0, t1)."""
        return sum(self._between(t0, t1))

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean probe duration around [t0, t1)."""
        mid, half = (t0 + t1) / 2, max(t1 - t0, MIN_WINDOW_S) / 2
        around = self._between(mid - half, mid + half) or self.seconds
        if not around:
            raise RuntimeError("the speed probe took no samples")
        return REF_S * len(around) / sum(around)

    def scaled(self, t0: float, t1: float) -> float:
        """Work seconds of [t0, t1) at reference speed."""
        return (t1 - t0 - self.probe_time(t0, t1)) * self.factor(t0, t1)
