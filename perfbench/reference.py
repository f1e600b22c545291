"""A fixed reference loop that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over minutes, as other tenants come and go; the same items
take that much longer in a slow spell.  The timed run takes a reading of
the host's speed before its first item, whenever REF_EVERY seconds of work
have passed and after its last item: the median time of REF_BURST passes
of this loop.  The loop does the three kinds of work the package does,
with none of the package's code: Python integer arithmetic (the ring
elements), Fraction arithmetic (the exact solver) and numpy int64 array
passes (the fastscan filter).  A time divided by the run's median reading
is a time in refs (one ref being one pass of the loop on that host in that
run).  It moves with the package, which the loop does not use, and much
less with the host, which slows the loop too.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

REF_EVERY = 0.5  # seconds of timed work between two readings
REF_BURST = 5  # loop passes per reading

# the array passes write into _OUT: a temporary this size would be mapped
# and unmapped on every pass or not, depending on what the process freed
# before, and the loop's speed with it
_ARRAY = np.arange(50_000, dtype=np.int64)
_OUT = np.empty_like(_ARRAY)


def reference_s() -> float:
    """Wall time of one pass of the reference loop (a few milliseconds)."""
    t = perf_counter()
    acc = 0
    for i in range(1500):
        acc += (i * 7919 + acc) % 104729
    frac = Fraction(0)
    for i in range(1, 100):
        frac += Fraction(acc % 97 + i, i + 1)
    for _ in range(4):
        np.multiply(_ARRAY, 3, out=_OUT)
        np.add(_OUT, acc % 1000, out=_OUT)
        np.remainder(_OUT, 7, out=_OUT)
        acc += int(_OUT.sum())
    return perf_counter() - t


def reading_s() -> float:
    """The host's speed now: the median of REF_BURST passes of the loop."""
    return statistics.median(reference_s() for _ in range(REF_BURST))
