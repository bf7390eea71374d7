"""Machine-speed calibration for timings on a shared, drifting CPU.

On the machines this benchmark was built on, the speed of the same pure
Python code drifts by a factor of up to 1.6 between regimes that last from
seconds to tens of seconds (the host's frequency and its other tenants;
CPU time drifts with wall time, so it is not preemption). A run of 20 s can
sit wholly in a slow regime. The worker therefore times a fixed reference
computation every few tens of milliseconds between queries, and every
timing is reported as

    calibrated = measured * REFERENCE_S / (reference time nearby)

that is, in seconds of a machine on which the reference takes REFERENCE_S.
The reference is two exponentials in this package's own trinomial code:
Fractions, dicts and tuples, the same kind of interpreter work as lndkit's.
Of the candidates tried (a tight arithmetic loop, cone geometry, these
exponentials), it tracked lndkit's own slowdowns best. On a steady machine
the factor is constant and cancels in any comparison of two commits; on a
drifting one it removes most of the drift. Raw timings are printed
alongside.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import rings

# Reference time of the calibrated scale: about what the reference takes on
# a 2-core x86 guest running CPython 3.11, in its faster regime.
REFERENCE_S = 0.0006
# Calibrate at least this often between queries, and use the samples within
# this window around a query to scale it.
INTERVAL_S = 0.02
WINDOW_S = 0.25

_RING = rings.Ring((1, 1, 2), (3, 2))
_DERIVATIONS = (_RING.images(0, 3), _RING.images(1, 4))


def reference():
    rings.exponential(_RING, _DERIVATIONS[0], (1, 1, 0, 1, 0))
    rings.exponential(_RING, _DERIVATIONS[1], (0, 1, 1, 0, 1))


def time_reference():
    start = perf_counter()
    reference()
    end = perf_counter()
    return start, end - start


class Calibration:
    """Reference-loop samples of one process, and the scale they imply."""

    def __init__(self):
        self.times = []  # when each sample started, in order
        self.loops = []  # how long the reference loop took

    def _add(self):
        start, took = time_reference()
        self.times.append(start)
        self.loops.append(took)

    def maybe_sample(self, now=None):
        now = perf_counter() if now is None else now
        if not self.times or now - self.times[-1] >= INTERVAL_S:
            self._add()

    def sample(self, count=1):
        for _ in range(count):
            self._add()

    def scale(self, start, end):
        """REFERENCE_S over the median loop time around [start, end]; the
        samples just before and after always count."""
        lo = max(0, bisect_left(self.times, start - WINDOW_S) - 1)
        hi = bisect_right(self.times, end + WINDOW_S) + 1
        return REFERENCE_S / statistics.median(self.loops[lo:hi])
