"""Machine-speed calibration: a fixed kernel timed between chunks of work.

On a shared machine the speed of identical work drifts by tens of
percent over seconds (other tenants, clock changes).  The benchmark
therefore runs this fixed kernel -- object churn, a heap, a dict and a
generator, the same kind of interpreter work the simulator does --
before and after every timed chunk.  A chunk's *speed factor* is the
mean of its two neighbouring kernel times over :data:`REFERENCE_S`;
dividing a chunk's wall time by it gives the time the chunk would have
taken on a machine that runs the kernel in exactly ``REFERENCE_S``.
The raw wall-clock figures are kept in the run's record next to the
calibrated ones.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: kernel wall time that defines the reference speed
REFERENCE_S = 0.025
_ITERATIONS = 14000


class _Item:
    __slots__ = ("key", "group")

    def __init__(self, key: int, group: int) -> None:
        self.key = key
        self.group = group


def _consumer():
    total = 0
    while True:
        total += yield total


def kernel() -> int:
    """Fixed interpreter work; returns a checksum so nothing is skipped."""
    heap: list = []
    groups: dict = {}
    consumer = _consumer()
    next(consumer)
    checksum = 0
    for i in range(_ITERATIONS):
        item = _Item(i, i & 63)
        heapq.heappush(heap, (i * 7919 % 10007, i, item))
        groups[item.group] = groups.get(item.group, 0) + 1
        if len(heap) > 256:
            checksum = consumer.send(heapq.heappop(heap)[2].key & 0xFF)
    return checksum + len(groups)


_EXPECTED = kernel()


class Calibrator:
    """Kernel timings in run order; gap ``i`` lies between tick ``i``
    and tick ``i + 1``."""

    def __init__(self) -> None:
        self.ticks: List[float] = []

    def tick(self) -> None:
        t0 = time.perf_counter()
        checksum = kernel()
        self.ticks.append(time.perf_counter() - t0)
        if checksum != _EXPECTED:
            raise RuntimeError("calibration kernel returned a different checksum")

    def factor(self, gap: int) -> float:
        """How much slower than the reference the machine ran in ``gap``."""
        return (self.ticks[gap] + self.ticks[gap + 1]) / 2.0 / REFERENCE_S
