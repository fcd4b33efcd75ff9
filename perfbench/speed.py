"""Scaling of measured times to a reference machine speed.

On a shared machine the speed of a CPU changes from moment to moment,
by up to twice, and for minutes at a time, with the load of other
tenants. A fixed piece of work, timed just before each timed window,
measures that speed. The benchmark reports a time ``t`` as
``t * CAL_REF_S / cal``: the seconds it would have taken at the speed
at which the calibration takes ``CAL_REF_S``.

The calibration enumerates chains of frozensets, the kind of work the
program's hot paths do (allocation, hashing, subset tests), and slows
down with the machine as they do. It is the benchmark's own code: no
change to the program under test changes its work.
"""

from __future__ import annotations

import gc
import time

# about the calibration's median time on a shared 2-CPU x86-64 box
CAL_REF_S = 0.005

_GROUND = range(9)
# subsets of a 9-set with at most four elements
_ELEMENTS = [
    frozenset(x for x in _GROUND if m >> x & 1)
    for m in range(1 << len(_GROUND))
    if bin(m).count("1") <= 4
]


def _chains() -> int:
    up = {
        a: [b for b in _ELEMENTS if len(b) == len(a) + 1 and a < b]
        for a in _ELEMENTS
    }
    count = 0
    stack = [(frozenset(),)]
    while stack:
        chain = stack.pop()
        count += 1
        stack.extend(chain + (b,) for b in up[chain[-1]])
    return count


def calibrate() -> float:
    """Seconds the calibration takes now. The garbage collector is off
    while it runs, so the program's live objects do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _chains()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, cal: float) -> float:
    return seconds * CAL_REF_S / cal
