"""The shared machine's speed, read by a probe, and normalised seconds.

Other tenants of the machine slow it down by up to half, for seconds to
minutes at a time, and a run that falls in such a spell reads slow as a
whole.  So the benchmark times a probe, a fixed pure-Python integer loop
that runs none of the package, next to everything it times, and gives each
timing in normalised seconds as well: the wall seconds times
``PROBE_REF_S`` over the mean of the probes before and after.  A change to
the package moves the timings and not the probes.
"""

import time

# Normalised seconds count time in probes: one is 1 / PROBE_REF_S probes.  A
# probe took about PROBE_REF_S on an undisturbed 2-CPU test machine (Python
# 3.11.7), so there normalised seconds are close to wall seconds.
PROBE_REF_S = 0.05


def probe() -> float:
    """Wall seconds of the probe loop.  It allocates nothing that lasts, so
    the heap the package leaves behind does not change it."""
    start = time.perf_counter()
    total = 0
    for i in range(600000):
        total += i * i % 7
    return time.perf_counter() - start


def normalised(seconds: float, before: float, after: float) -> float:
    """Normalised seconds of a timing between probes ``before`` and ``after``."""
    return 2 * PROBE_REF_S * seconds / (before + after)
