"""Machine-speed reference: a fixed kernel timed between CLI commands.

The machine this benchmark was written on runs the same code 20-40%
faster or slower from one minute to the next (other tenants share its
caches and memory bandwidth). The kernel below does the kinds of work the
program does: Python dict and string churn, and numpy operations on arrays
of a few thousand elements. Its time, taken right before and right after
each timed command, tracks those swings; dividing a command's time by the
kernel's time removes most of them. (A strided walk over a large matrix
tracked the program's swings worse, and is not part of it.) The kernel is
part of the benchmark and never changes with the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the machine where the benchmark was written. Times
# are reported as measured time x NOMINAL_S / kernel time, in seconds at
# that machine's typical speed.
NOMINAL_S = 0.026
REPEATS = 3

_ARRAY = np.arange(2000.0)


def _kernel() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(40_000):
        table[i % 997] = (i, str(i))
    for _ in range(600):
        values = np.exp(-(_ARRAY * 0.001) ** 1.5)
        values[values > 0.5].sum()
    return time.perf_counter() - start


def kernel_time() -> float:
    """Median of a few kernel runs, in seconds."""
    return statistics.median(_kernel() for _ in range(REPEATS))


def timed_repeats(fn, min_repeats: int, min_seconds: float):
    """Call fn() at least min_repeats times and for at least min_seconds.

    Returns the last result and each call's time scaled by one kernel run
    on either side of it, so that speed swings within the repeats are
    scaled out call by call.
    """
    times: list[float] = []
    kernel_before = _kernel()
    while len(times) < min_repeats or sum(times) < min_seconds:
        start = time.perf_counter()
        result = fn(len(times))
        elapsed = time.perf_counter() - start
        kernel_after = _kernel()
        times.append(elapsed * NOMINAL_S / ((kernel_before + kernel_after) / 2.0))
        kernel_before = kernel_after
    return result, times


def timed(fn):
    """Run fn(); return (its result, the speed scale NOMINAL_S / kernel time).

    The kernel is timed before and after the call and the two are averaged.
    """
    before = kernel_time()
    result = fn()
    after = kernel_time()
    return result, NOMINAL_S / ((before + after) / 2.0)
