"""I/O bus and DMA timing models.

The PCA-200 sits on PCI (96-byte DMA bursts, per the paper); the older
SBA-200 used SBus (32-byte bursts).  The DC21140 is a PCI bus master.
DMA time is modelled as a fixed per-transfer setup cost plus a per-burst
arbitration cost plus serialization at the bus's sustained bandwidth.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from ..sim import Simulator

__all__ = ["BusModel", "PCI_BUS", "SBUS", "BusArbiter", "DmaEngine"]


@dataclass(frozen=True)
class BusModel:
    """Timing parameters of an I/O bus."""

    name: str
    bandwidth_mbytes_per_s: float
    burst_bytes: int
    #: one-time transfer setup (descriptor fetch, address phase)
    setup_us: float
    #: re-arbitration cost paid once per burst
    per_burst_us: float

    def transfer_time(self, nbytes: int) -> float:
        """Bus time occupied by a DMA of ``nbytes`` bytes."""
        if nbytes <= 0:
            return self.setup_us
        bursts = max(1, math.ceil(nbytes / self.burst_bytes))
        return self.setup_us + bursts * self.per_burst_us + nbytes / self.bandwidth_mbytes_per_s


#: 32-bit 33 MHz PCI: 132 MB/s peak; the paper notes 96-byte bursts for
#: the PCA-200 and full-frame bus-master DMA for the DC21140.
PCI_BUS = BusModel(
    name="PCI-32/33",
    bandwidth_mbytes_per_s=110.0,
    burst_bytes=96,
    setup_us=0.30,
    per_burst_us=0.12,
)

#: SBus (SPARCstation hosts, SBA-200): 32-byte bursts, lower throughput.
SBUS = BusModel(
    name="SBus",
    bandwidth_mbytes_per_s=45.0,
    burst_bytes=32,
    setup_us=0.45,
    per_burst_us=0.18,
)


class BusArbiter:
    """FIFO arbitration of one bus among the DMA masters sharing it."""

    __slots__ = ("busy", "waiters")

    def __init__(self) -> None:
        self.busy = False
        #: transfers waiting for the bus, oldest first
        self.waiters: Deque[tuple] = deque()

    @property
    def queued(self) -> int:
        return len(self.waiters)


class DmaEngine:
    """A DMA master on a shared bus.

    Transfers from different devices on the same bus serialize through a
    shared :class:`BusArbiter` in request order, modelling bus
    arbitration.
    """

    def __init__(self, sim: Simulator, bus: BusModel, shared_bus: Optional[BusArbiter] = None,
                 name: str = "dma") -> None:
        self.sim = sim
        self.bus = bus
        self.name = name
        self.arbiter = shared_bus or BusArbiter()
        self.bytes_transferred = 0
        self.transfers = 0

    def start(self, nbytes: int, done: Callable[..., None], *args: Any) -> None:
        """Move ``nbytes`` across the bus, then call ``done(*args)``.

        The transfer takes the bus now if it is free, else after every
        transfer queued before it.  ``done`` runs as a zero-delay
        callback scheduled after the bus has passed to the next waiter:
        the waiter's transfer is on the timeline before the finished
        transfer's continuation can queue another one behind it.
        """
        arbiter = self.arbiter
        if arbiter.busy:
            arbiter.waiters.append((self, nbytes, done, args))
            return
        arbiter.busy = True
        self.sim.call_in(self.bus.transfer_time(nbytes), self._finish, nbytes, done, args)

    def _finish(self, nbytes: int, done: Callable[..., None], args: tuple) -> None:
        self.bytes_transferred += max(0, nbytes)
        self.transfers += 1
        arbiter = self.arbiter
        if arbiter.waiters:
            engine, waiting_bytes, waiting_done, waiting_args = arbiter.waiters.popleft()
            self.sim.call_in(engine.bus.transfer_time(waiting_bytes), engine._finish,
                             waiting_bytes, waiting_done, waiting_args)
        else:
            arbiter.busy = False
        self.sim.call_in(0.0, done, *args)
