"""The host's current speed, read from a fixed reference computation.

The benchmark shares its CPUs with other tenants of the host.  Their
load changes the speed of this process by up to 2x within a second and
for minutes on end, and CPU time slows with wall time, so neither is
steady.  Every timed piece of work is therefore paired with timings of
the reference computation right before and right after it, and reported
as ``time * REF_S / reference time``: seconds at the speed at which the
reference takes REF_S.
"""

import gc
import time
from fractions import Fraction

# The reference's time on an uncontended core of the machine the figures
# in README.md come from (a 2.0 GHz Xeon, Python 3.11.7): the least of
# 3000 timings.
REF_S = 0.0003


def reference_s() -> float:
    """Seconds taken by a fixed exact-rational sum, with the collector off
    so that the size of the program's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for m in range(1, 120):
            total += Fraction(1, m * m)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def rescale(seconds: float, refs) -> float:
    """Seconds measured among the given reference timings, at the
    reference speed."""
    return seconds * REF_S * len(refs) / sum(refs)
