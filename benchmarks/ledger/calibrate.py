"""How fast the box is running right now, so timings can be compared.

This is a 2-vCPU guest on a shared host.  A fixed piece of work takes
25-50 % longer whenever a neighbour is busy on the same physical core,
in phases that last from a second to minutes — longer than a run — so
no estimator over one run's samples can remove them: medians of
back-to-back identical runs sit 10-30 % apart.  What does repeat is a
timing *relative to a fixed kernel timed beside it*: the kernel slows
down with everything else.

Every round times :func:`kernel_seconds` a few times between its
operations, on this process's core and on the server's (a neighbour
slows the two independently); a core's ``slowdown`` is the median of
its samples over :data:`REFERENCE_S`.  Each timing of the round is then
read :meth:`SpeedMeter.at_reference` speed: the CPU time this thread
spent is divided by its own core's slowdown, the rest of the wall time
— waiting for the server — by the server core's.  The constant only
fixes the scale and cancels in any comparison of two commits.
Measured on this box over 12 s windows, the run-to-run spread (IQR /
median) of the round medians fell from 10-30 % to 2-8 %.

The kernel mixes the kinds of work the codec and the service do —
bytecode arithmetic, heap and dict traffic, NumPy passes over a large
array and many calls on a small one — because a busy neighbour slows
those by different amounts and a blend tracks the stack best.
"""

from __future__ import annotations

import heapq
import os
import statistics
from time import perf_counter
from typing import NamedTuple

import numpy as np

__all__ = ["REFERENCE_S", "Elapsed", "SpeedMeter", "kernel_seconds"]

#: kernel time that defines slowdown 1.0 (this box, no neighbour)
REFERENCE_S = 0.005

_LARGE = np.random.default_rng(0).standard_normal(1 << 15)
_SMALL = np.random.default_rng(1).integers(0, 64, 1024)


def kernel_seconds(cpu: int | None = None) -> float:
    """Time one pass of the fixed calibration kernel.

    With *cpu*, the pass runs on that core (this thread moves there
    and back): the server is pinned to a core of its own, and a
    neighbour slows the two cores independently.
    """
    if cpu is not None:
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            return kernel_seconds()
        finally:
            os.sched_setaffinity(0, home)
    started = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    heap: list = []
    tally: dict = {}
    for i in range(3000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        tally[i % 97] = tally.get(i % 97, 0) + 1
    while len(heap) > 1:
        heapq.heappop(heap)
    array = _LARGE
    for _ in range(4):
        array = np.cumsum(array) * 0.5
        np.sort(array)
    for _ in range(20):
        _, counts = np.unique(_SMALL, return_counts=True)
        np.cumsum(counts)
    return perf_counter() - started


class Elapsed(NamedTuple):
    """Wall seconds of a call and the CPU seconds this thread spent in it."""

    wall: float
    cpu: float


class SpeedMeter:
    """Kernel samples beside the work, and timings read against them."""

    def __init__(self, server_cpu: int | None = None) -> None:
        self._server_cpu = server_cpu
        self._client: list[float] = []
        self._server: list[float] = []

    def sample(self) -> None:
        self._client.append(kernel_seconds())
        if self._server_cpu is not None:
            self._server.append(kernel_seconds(self._server_cpu))

    # the median: one sample that a scheduling hiccup stretched tenfold
    # must not pass for a slow box

    @property
    def client(self) -> float:
        """Slowdown of this process's core: 1.0 is the reference speed."""
        return statistics.median(self._client) / REFERENCE_S

    @property
    def server(self) -> float:
        """Slowdown of the server's core (this one's, if they share it)."""
        return statistics.median(self._server or self._client) / REFERENCE_S

    def at_reference(self, elapsed: Elapsed) -> float:
        """*elapsed* in seconds, had both cores run at reference speed."""
        waited = max(elapsed.wall - elapsed.cpu, 0.0)
        return elapsed.cpu / self.client + waited / self.server
