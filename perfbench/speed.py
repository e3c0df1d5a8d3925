"""Host speed probe: rescale measured times to a reference host speed.

On a shared host the same request can run up to twice as slow for
seconds or minutes at a time, in CPU time as much as in wall time, so
even the fastest sample of a run moves with the host rather than with
the program.  ``Probe`` times a fixed piece of pure-Python work, like
the integer row reduction the package spends its time in, from a
``SIGALRM`` handler every ``INTERVAL_S`` of wall time.  A span of
measured work is then rescaled by how fast the probe ran during it:

    reference seconds = (measured - probe time inside) * mean(REF_S / probe)

``REF_S`` is the probe's time on the reference host, so a figure reads
as the time the work takes on a host where one probe takes ``REF_S``.
The mean of ``REF_S / probe`` weights every probe interval equally, so
a span that is half slow and half fast is rescaled by its average
speed.  A change to the program moves the measured time but not the
probe, so it moves the rescaled figure by the same share.
"""

from __future__ import annotations

import array
import bisect
import signal
import time

INTERVAL_S = 0.025
# the probe's time on the reference host (its fastest on a 2-vCPU
# shared host with Python 3.11)
REF_S = 0.0002
# a span with fewer probes inside is rescaled by this many around it
NEAREST = 8


def probe_work(n: int = 24) -> int:
    """Fixed work: eliminate below the diagonal of a banded integer matrix."""
    mat = {}
    for i in range(n):
        row = {}
        for j in range(max(0, i - 3), min(n, i + 4)):
            v = (i * 31 + j * 17) % 7 - 3
            if v:
                row[j] = v
        mat[i] = row
    total = 0
    for p in range(n):
        pivot = mat[p]
        if not pivot:
            continue
        col, v = min(pivot.items(), key=lambda kv: (abs(kv[1]), kv[0]))
        for i in range(p + 1, min(n, p + 4)):
            row = mat[i]
            q = row.get(col, 0)
            if q:
                for c, w in pivot.items():
                    nv = row.get(c, 0) * v - q * w
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        total += v
    return total


class Probe:
    """Times ``probe_work`` every ``interval`` s while it is active."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts = array.array("d")
        self.costs = array.array("d")
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def _window(self, t0: float, t1: float) -> tuple:
        """Index range of the probes started inside [t0, t1]."""
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_right(self.starts, t1))

    def speed(self, t0: float, t1: float) -> float:
        """Mean of ``REF_S / probe`` over [t0, t1], widened to ``NEAREST`` probes."""
        if not self.starts:
            raise RuntimeError("no probe ran; the span is too short to rescale")
        lo, hi = self._window(t0, t1)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.starts)):
            # take the nearer neighbour in time
            before = t0 - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - t1 if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return sum(REF_S / c for c in self.costs[lo:hi]) / (hi - lo)

    def rescale(self, t0: float, t1: float) -> float:
        """Reference-host seconds of the work done in [t0, t1], probes excluded."""
        lo, hi = self._window(t0, t1)
        busy = t1 - t0 - sum(self.costs[lo:hi])
        return busy * self.speed(t0, t1)
