"""Machine-speed calibration of measured wall times.

The benchmark runs on hosts shared with other tenants, where the speed of a
core drifts by up to a factor of two within a minute: an identical 15 ms
piece of Sturm counting was measured anywhere from 12 to 21 ms (2-second
medians, 2-core host, Python 3.11).  Raw wall times then vary more from run
to run than any regression worth catching.  A fixed kernel that does not
touch the program, timed right before and right after each measured
interval, gives the speed of the host at that moment; dividing by it removed
about 70% of that drift in the same measurement (log-spread of the ratio
0.054 against 0.18 raw).

A scaled time reads as the wall time on a host where :func:`kernel` takes
``NOMINAL_S``, roughly its median on a 2-core Intel Xeon host (Python 3.11,
NumPy 2.4).  The raw wall times are printed and recorded next to the scaled
ones.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 2.6e-3

# Pure-Python float recurrence (like the Sturm pivot loop and CSV formatting)
# plus NumPy array arithmetic (like the grid evaluators).
_VALUES = [2.0 + 0.5 * ((i * 7919) % 1000) / 1000.0 for i in range(20000)]
_ARRAY = np.linspace(0.5, 2.0, 100_000)


def kernel() -> float:
    q, negative = 1.0, 0
    for d in _VALUES:
        q = d - 1.0 / q
        if q < 0.0:
            negative += 1
    return negative + float(np.sum(np.hypot(_ARRAY, 2.0 * _ARRAY) / (_ARRAY + 1.0)))


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at nominal speed, from kernel times taken around the interval."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
