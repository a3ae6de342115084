"""Host-speed probe: a fixed piece of interpreter work timed between
slices of the measured work, so that wall-clock metrics can be stated at
a reference host speed.

On a shared machine the same work runs up to 40% slower for tens of
seconds at a time, because other tenants load the cores.  The probe runs
no ``repro`` code and runs with the garbage collector off, so a change to
the program never changes it; it only tracks how fast the host runs
Python at that moment.  A wall time ``t`` measured while the probe takes
``p`` seconds is reported as
``t * REFERENCE_PROBE_S / p``: the time the work would take on a host
where the probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

__all__ = ["REFERENCE_PROBE_S", "PROBE_GAP_S", "probe", "HostSpeed"]

#: the probe's median duration on the reference host (a 2-core x86-64
#: VM with Python 3.11, the machine the bounds were tuned on).
REFERENCE_PROBE_S = 0.002
#: wall seconds of measured work between two probes.
PROBE_GAP_S = 0.02


def probe() -> float:
    """Run the reference work once and return its wall duration.

    The collector is off while it runs, so the probe's time does not
    depend on the size of the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if enabled:
            gc.enable()


def _timed_work() -> float:
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    total = 0

    def accumulate():
        acc = 0
        while True:
            acc += yield acc

    acc = accumulate()
    next(acc)
    for i in range(1500):
        heapq.heappush(heap, (i * 7919 % 1000, i, str(i)))
        table[i & 1023] = heap[0]
        if len(heap) > 64:
            total += acc.send(heapq.heappop(heap)[0]) & 1
    return time.perf_counter() - t0


class HostSpeed:
    """Probe durations collected during one stretch of measured work."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(probe())

    @property
    def factor(self) -> float:
        """Reference-host seconds per host second while measuring."""
        return REFERENCE_PROBE_S / (sum(self.samples) / len(self.samples))
