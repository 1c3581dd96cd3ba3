"""Host-speed calibration: a fixed kernel timed between operations.

A shared host changes speed by tens of percent over tens of seconds, and by
more between runs minutes apart.  The benchmark therefore times this kernel,
which uses neither copulagrid nor the seed, between the operations it
measures, and reports every time in *reference seconds*: the measured time
scaled by ``REFERENCE_KERNEL_S`` over the kernel time measured around it.  On
a host where the kernel takes ``REFERENCE_KERNEL_S``, reference seconds are
wall seconds.  A change to copulagrid moves the operations and not the
kernel, so it shows in full.

Neighbours on a shared host slow small-array numpy, large-array numpy and
plain interpreter work by different amounts, and the workloads mix the three
in different shares, so the kernel has one part of each and a sample is the
geometric mean of the parts' times.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from collections import deque

import numpy as np

#: kernel time, in seconds, that defines a reference second (the median
#: sample on a 2-vCPU x86-64 host at its usual speed)
REFERENCE_KERNEL_S = 1.1e-3

#: runs of each part per sample; a part's time is the fastest of them
RUNS_PER_SAMPLE = 3

#: samples around a moment whose median gives the host speed at that moment
WINDOW = 9

_rng = np.random.default_rng(20210121)
_COST = _rng.uniform(size=(16, 16))
_U = _rng.uniform(size=16)
_V = _rng.uniform(size=16)
_EDGES = [(i, (i * 7 + 3) % 32) for i in range(32)] + [(i, i + 1) for i in range(31)]
_PAIRS = [(int(a), int(b)) for a, b in _rng.integers(0, 64, size=(300, 2))]
_BIG_COST = _rng.uniform(size=(256, 256))
_BIG_U = _rng.uniform(size=256)
_BIG_V = _rng.uniform(size=256)


def _small_arrays() -> float:
    """Reduced costs and an argmin on a 16 x 16 matrix, then a tree walk and a sort."""
    acc = 0.0
    for _ in range(20):
        rc = _COST - _U[:, None] - _V[None, :]
        acc += float(rc.flat[int(np.argmin(rc))])
    for _ in range(10):
        adj = {}
        for i, j in _EDGES:
            adj.setdefault(i, []).append((j, (i, j)))
            adj.setdefault(j, []).append((i, (i, j)))
        parent = {0: None}
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for nxt, arc in adj.get(node, ()):
                if nxt not in parent:
                    parent[nxt] = (node, arc)
                    queue.append(nxt)
        acc += len(sorted(_PAIRS)) + len(parent)
    return acc


def _large_arrays() -> float:
    """Reduced costs and an argmin on a 256 x 256 matrix."""
    acc = 0.0
    for _ in range(6):
        rc = _BIG_COST - _BIG_U[:, None] - _BIG_V[None, :]
        acc += float(rc.flat[int(np.argmin(rc))])
    return acc


def _interpreter() -> float:
    """Dict stores under a modular hash, then a sort of the items."""
    table = {}
    for i in range(3000):
        table[(i * 7) % 1009] = i
    return float(sorted(table.items())[0][1])


PARTS = (_small_arrays, _large_arrays, _interpreter)


def sample() -> float:
    """Geometric mean over the parts of each part's fastest of ``RUNS_PER_SAMPLE`` runs."""
    clock = time.perf_counter
    log_sum = 0.0
    for part in PARTS:
        best = float("inf")
        for _ in range(RUNS_PER_SAMPLE):
            t0 = clock()
            part()
            best = min(best, clock() - t0)
        log_sum += math.log(best)
    return math.exp(log_sum / len(PARTS))


class SpeedLog:
    """Kernel samples taken in a timed loop, each tagged with its position.

    ``tick(pos, busy)`` takes a sample when ``interval`` seconds of measured
    time have passed since the last one; ``factor(pos)`` is the number by
    which a time measured at ``pos`` is multiplied to give reference seconds.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.positions: list[int] = []
        self.samples: list[float] = []
        self._last = -float("inf")

    def tick(self, pos: int, busy: float):
        if busy - self._last >= self.interval:
            self.positions.append(pos)
            self.samples.append(sample())
            self._last = busy

    def factor(self, pos: int) -> float:
        """``REFERENCE_KERNEL_S`` over the median of the ``WINDOW`` samples nearest ``pos``."""
        k = bisect.bisect_right(self.positions, pos)
        lo = max(0, min(k - WINDOW // 2, len(self.samples) - WINDOW))
        return REFERENCE_KERNEL_S / statistics.median(self.samples[lo : lo + WINDOW])
