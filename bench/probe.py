"""Host-speed probe: a fixed piece of interpreter work timed next to every op.

The vCPU this benchmark runs on changes speed by 10-20 % from one few-second
window to the next, for the engine and for any other Python code alike
(see README.md).  Timing this fixed work between ops measures the host's
speed at that moment; run.py scales op times by REFERENCE_MS / probe time,
so end-to-end times read in milliseconds of a host running at reference
speed.  The probe never touches ceviangeo, so no change to the engine can
alter it.  The garbage collector is paused while the probe runs, so a
collection set off by an op's garbage is charged to the engine, not to the
host's speed.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from math import gcd
from time import perf_counter

# Reference speed: the probe takes 2.0 ms.  The 2-vCPU guest the bounds were
# set on took 1.9 ms in its fast phases and up to 2.6 ms in its slow ones.
REFERENCE_MS = 2.0

_BIG = 3 ** 400


def probe() -> float:
    """Run the fixed work once; return its wall time in milliseconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0
        for i in range(1, 450):
            q = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i + 2)
            acc += q.numerator
        for i in range(1, 160):
            acc += gcd(_BIG + i, (_BIG >> 3) + 7 * i)
        elapsed = (perf_counter() - start) * 1e3
    finally:
        if collecting:
            gc.enable()
    if acc <= 0:
        raise AssertionError("probe arithmetic went wrong")
    return elapsed
