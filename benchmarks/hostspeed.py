"""How fast the host runs right now, relative to a reference host.

The benchmark shares a few cores of a busy machine.  On a 2-vCPU share
of a Xeon host, the same Python work took from 0.5 to 1.0 s within one
minute, in CPU time as in wall time: the drift is contention for the
cores' caches and execution units, not time spent off the CPU.  Every
timed stretch of a run is therefore bracketed by a short calibration: a
fixed loop of pure-standard-library work (exact fractions in a dict, the
kind of work the library does), which no change to the library can speed
up or slow down.  The loop's time over REFERENCE_S is the host's slowness
at that moment; a stretch's wall time divided by it is the time the
stretch would take on the reference host, on which the loop takes
REFERENCE_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

TERMS = 700
# About the loop's time on a 2-vCPU Xeon host with Python 3.11.  It only
# sets the unit; any fixed value would do.
REFERENCE_S = 0.005


def _loop() -> float:
    start = time.perf_counter()
    acc = {}
    for i in range(1, TERMS):
        key = i % 13
        acc[key] = acc.get(key, 0) + Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now: the faster of two
    runs, so that one preemption does not count as a slow host."""
    return min(_loop(), _loop())


def slowness() -> float:
    """The host's slowness now: 1 on the reference host, 2 at half its speed."""
    return calibrate() / REFERENCE_S
