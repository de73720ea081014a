"""Host-speed reference: a fixed numpy + Python kernel, timed between solves.

On a shared virtual machine the same solve can take 20% more or less wall
time from one second to the next, with CPU time tracking wall time: the
host itself runs faster or slower. A kernel that never calls the library
slows down with it. The benchmark times this kernel between solves and
scales each solve's time by NOMINAL_S over the mean of the kernel times
just before and just after it, which cancels most of the drift and keeps
changes in the library's own work.
The kernel mixes what a solve spends its time on: small dense SVDs and
symmetric eigensolves, small products, and interpreted Python.
"""

import math
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.010  # median kernel time on the 2-vCPU Xeon VM the baseline was taken on
EVERY_S = 0.1  # at most one kernel run per this many seconds of solving


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((48, 48))
        self._sym = self._square + self._square.T
        self._wide = rng.standard_normal((6, 90))
        self._samples = []
        self._last = -math.inf

    def _kernel(self):
        acc = 0.0
        for _ in range(8):
            acc += np.linalg.svd(self._square)[1][0]
            acc += np.linalg.svd(self._wide)[1][0]
            acc += np.linalg.eigh(self._sym)[0][0]
            acc += float((self._square @ self._wide[0, :48]).sum())
            table = {i: 0.5 * i for i in range(300)}
            acc += sum(table.values())
        return acc

    def sample(self, every_s=EVERY_S):
        """Time the kernel unless it ran less than `every_s` seconds ago; index of the last run."""
        if perf_counter() - self._last >= every_s:
            t0 = perf_counter()
            self._kernel()
            self._last = perf_counter()
            self._samples.append(self._last - t0)
        return len(self._samples) - 1

    def scale(self, mark):
        """Factor from wall to nominal seconds for work done between runs `mark` and `mark + 1`."""
        return 2.0 * NOMINAL_S / (self._samples[mark] + self._samples[mark + 1])

    def median_scale(self):
        return NOMINAL_S / statistics.median(self._samples)
