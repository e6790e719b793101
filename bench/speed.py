"""Host-speed calibration for the benchmark's timings.

On a shared host the same code can run 1.6 times slower from one second to
the next: a fixed pure-Python loop took 23 ms to 34 ms in consecutive
one-second windows on a 2-core Xeon VM (Python 3.11), and ten runs of one
workload, one seed each, spread by 43% of their median.  So the benchmark
reports every timing at a reference speed.  A SIGALRM timer runs a fixed
kernel (``bfs_all`` on a 10 x 10 torus) every ``INTERVAL_S`` seconds during
the run; a span's time, less the kernel time that interrupted it, is scaled
by ``KERNEL_REF_S`` over the median kernel time measured during the span
and ``WINDOW_S`` seconds either side of it.  Calibrated values read as
seconds on a host where one kernel call takes ``KERNEL_REF_S``; the raw
times are kept in the run's report.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Callable

INTERVAL_S = 0.1
WINDOW_S = 0.5
KERNEL_REF_S = 0.0025


def torus(side: int) -> list[list[int]]:
    """Adjacency lists of the side x side torus grid."""
    return [
        [((r + dr) % side) * side + (c + dc) % side
         for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        for r in range(side) for c in range(side)
    ]


def bfs_all(adj: list[list[int]]) -> int:
    """Sum of all BFS distances: the calibration kernel (pure-Python graph
    traversal, like the package's own hot paths)."""
    total = 0
    for root in range(len(adj)):
        dist = [-1] * len(adj)
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist)
    return total


KERNEL_GRAPH = torus(10)


class SpeedProbe:
    """Samples the kernel on a timer; maps raw spans to calibrated time."""

    def __init__(self):
        self.at: list[float] = []    # midpoint of each kernel sample
        self.cost: list[float] = []  # its duration
        self.paused = 0.0            # total kernel time so far

    def sample(self, *_signal) -> None:
        t0 = perf_counter()
        bfs_all(KERNEL_GRAPH)
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.cost.append(t1 - t0)
        self.paused += t1 - t0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def time(self, fn: Callable[[], object]) -> tuple[object, float, float, float]:
        """Run fn; return its result, start, end and time without kernel samples."""
        paused = self.paused
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        return result, t0, t1, t1 - t0 - (self.paused - paused)

    def scale(self, t0: float, t1: float) -> float:
        """KERNEL_REF_S over the median kernel time near the span [t0, t1]."""
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        near = self.cost[lo:hi]
        if not near:  # only when the timer could not fire: use the closest sample
            i = min(lo, len(self.cost) - 1)
            near = self.cost[max(i - 1, 0):i + 1]
        return KERNEL_REF_S / statistics.median(near)

    def run_scale(self) -> float:
        """KERNEL_REF_S over the median kernel time of the whole run."""
        return KERNEL_REF_S / statistics.median(self.cost)
