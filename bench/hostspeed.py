"""The host's speed, from a fixed reference kernel timed between rounds.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
20-50% over minutes, as its neighbours' load changes. Every kind of work
moves together: interpreted Python, small numpy allocations and LAPACK
alike. Runs of the same code, minutes apart, then differ by as much as a
useful regression bound, however long each run is.

So the benchmark times a fixed kernel of its own, which calls nothing of
protower, right before and after every timed item, and reports each item's
time as it would read at the kernel's nominal speed::

    adjusted = wall * REF_NOMINAL_S / median(kernel times around the item)

An adjusted time is in reference seconds: seconds on a host that runs the
kernel in ``REF_NOMINAL_S``. A change to protower moves the wall time and
leaves the kernel alone, so it moves the adjusted time by the same share.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest,
# Python 3.11, numpy 2.4 with OpenBLAS on one thread. Only a unit: the
# ratio of two adjusted times does not depend on it.
REF_NOMINAL_S = 0.035


class HostSpeed:
    """Times the reference kernel and turns wall times into reference seconds.

    ``mark()`` takes a sample inside a long item (between the commands of a
    cli-suite round, say); ``factor()`` takes the closing sample of the item
    just timed and returns REF_NOMINAL_S over the median of its samples,
    the opening one included. The closing sample opens the next item.
    ``busy_s`` sums the time spent in ``mark()``, for the caller to leave
    out of the item's wall time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((160, 160))
        self._kernel()  # warm-up
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._window = [self._time()]

    def _kernel(self) -> None:
        # interpreted Python: integer arithmetic and dict stores
        acc, table = 0, {}
        for i in range(100000):
            acc += i * i % 7
            table[i % 97] = acc
        # small numpy arrays built and copied, as blocks are materialized
        for n in list(range(8, 120, 4)) * 16:
            a = np.zeros((n, n), dtype=complex)
            a[np.arange(n - 1), np.arange(1, n)] = 1.0
            np.array(a).sum()
        # dense LAPACK
        for _ in range(3):
            np.linalg.svd(self._matrix)

    def _time(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def mark(self) -> None:
        t0 = time.perf_counter()
        self._window.append(self._time())
        self.busy_s += time.perf_counter() - t0

    def factor(self) -> float:
        self._window.append(self._time())
        f = REF_NOMINAL_S / statistics.median(self._window)
        self.samples += self._window[1:]
        self._window = self._window[-1:]
        return f
