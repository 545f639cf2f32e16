"""Host-speed correction for the benchmark's timings.

The speed of a shared virtual CPU drifts by up to a factor of two within
seconds and over minutes, which moves any wall-clock figure more than a
program change would.  A ``Speedometer`` samples that speed while it runs:
every ``INTERVAL`` seconds a SIGALRM handler times ``reference()``, a fixed
loop of the same kind of work the library does (``Fraction`` arithmetic on
dict entries).  ``seconds(start, end)`` then gives the wall time of an
interval, minus the time the handler took inside it, scaled by how much
slower than nominal the reference ran around it: the seconds the interval
would take on a host where one ``reference()`` takes ``REFERENCE_SECONDS``.

Only the process's own main thread is interrupted, and only between
``start`` and ``stop``.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.025
# One reference() at full speed on a 2-vCPU x86-64 KVM guest, Python 3.11:
# the unit that corrected seconds are expressed in.
REFERENCE_SECONDS = 0.0007
PAUSE = 3


def reference():
    acc = {}
    for k in range(1, 120):
        key = (k % 3, k % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(k, k % 7 + 1) * Fraction(3, k)
    return acc


class Speedometer:
    def __init__(self):
        self.starts = []  # start of each reference sample, in order
        self.took = []    # its seconds

    def _tick(self, signum, frame):
        # a collection the program's garbage triggers here is not host speed
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference()
        self.starts.append(t0)
        self.took.append(perf_counter() - t0)
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start, end):
        """Corrected seconds of the interval [start, end], from the samples
        taken inside it plus the nearest one on either side.  A sample more
        than PAUSE times the median of these caught a pause of the virtual
        CPU, not its speed, and is left out of the estimate."""
        lo = max(bisect_left(self.starts, start) - 1, 0)
        hi = bisect_right(self.starts, end) + 1
        around = self.took[lo:hi]
        if not around:
            raise RuntimeError("no host-speed sample near the interval")
        inside = sum(self.took[bisect_left(self.starts, start):bisect_right(self.starts, end)])
        limit = PAUSE * statistics.median(around)
        kept = [t for t in around if t <= limit]
        slowdown = sum(kept) / len(kept) / REFERENCE_SECONDS
        return (end - start - inside) / slowdown
