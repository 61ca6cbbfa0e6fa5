"""The DECchip 21140 Fast Ethernet controller.

A straightforward bus-master NIC (Section 4.3): circular transmit and
receive descriptor rings live in host memory; each descriptor points at
up to two buffers.  The kernel pushes send descriptors and issues a
*transmit poll demand*; the chip then DMAs the chained buffers and puts
the frame on the wire.  Received frames are DMAed into fixed kernel
buffers in FIFO order and an interrupt is raised.  The chip assumes a
single operating-system agent — which is exactly why U-Net/FE must live
in the kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Optional, Tuple

from ..hw.bus import PCI_BUS, BusModel, DmaEngine
from ..sim import BoundedRing, Simulator, TraceRecorder
from .frames import COLLECTIVE_PORT, ETH_HEADER_SIZE, EthernetFrame, MacAddress
from .medium import Attachment, ExcessiveCollisions

__all__ = ["Dc21140", "NicTimings", "TxRingDescriptor", "RxRingBuffer"]

#: frames the chip's transmit FIFO stages ahead of the wire
TX_FIFO_FRAMES = 2


@dataclass
class NicTimings:
    """DC21140 internal costs (microseconds)."""

    #: response to a poll demand: descriptor fetch from host memory
    tx_descriptor_fetch_us: float = 3.2
    #: FIFO fill threshold before transmission starts
    tx_fifo_threshold_us: float = 1.6
    #: end-of-frame to DMA start on receive
    rx_dma_start_us: float = 2.1
    #: DMA completion to interrupt assertion; together with the CPU's
    #: interrupt-entry cost this reproduces the paper's "roughly 2 us"
    #: between frame data in memory and the handler running
    rx_interrupt_delay_us: float = 1.44
    #: hypothetical on-NIC collective engine: process one collective
    #: packet on the controller (no bus crossing, no interrupt)
    collective_op_us: float = 2.0


@dataclass
class TxRingDescriptor:
    """One entry of the transmit descriptor ring."""

    frame: EthernetFrame
    #: U-Net bookkeeping: the user-area buffer indices to reclaim and the
    #: send descriptor to mark completed once the chip is done with them
    on_complete: Optional[Callable[[], None]] = None
    completed: bool = False


@dataclass
class RxRingBuffer:
    """One fixed kernel receive buffer (filled in FIFO order)."""

    frame: Optional[EthernetFrame] = None


class Dc21140:
    """One DC21140 chip wired to an attachment (hub tap or switch link)."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacAddress,
        bus: BusModel = PCI_BUS,
        timings: Optional[NicTimings] = None,
        tx_ring_size: int = 64,
        rx_ring_size: int = 64,
        name: str = "dc21140",
    ) -> None:
        self.sim = sim
        self.mac = mac
        self.name = name
        self.timings = timings or NicTimings()
        self.dma = DmaEngine(sim, bus, name=f"{name}.dma")
        self.attachment: Optional[Attachment] = None
        #: host-memory transmit ring (kernel pushes, chip pops)
        self.tx_ring: BoundedRing[TxRingDescriptor] = BoundedRing(tx_ring_size, name=f"{name}.txring")
        #: filled receive buffers awaiting the kernel's interrupt handler
        self.rx_ring: BoundedRing[RxRingBuffer] = BoundedRing(rx_ring_size, name=f"{name}.rxring")
        self.rx_ring_capacity = rx_ring_size
        #: kernel installs this to be interrupted on receive
        self.interrupt: Optional[Callable[[], None]] = None
        #: collective engine handler: frames on COLLECTIVE_PORT are
        #: consumed here on the controller — no ring, no interrupt
        self.collective_rx: Optional[Callable[[bytes], None]] = None
        #: kernel installs this to learn of freed TX ring slots
        self.on_tx_space: Optional[Callable[[], None]] = None
        #: the transmit engine is draining the ring (a poll demand then
        #: needs no new scan)
        self._tx_running = False
        #: staging between the DMA engine and the wire: the chip prefetches
        #: the next frame into its FIFO while the current one transmits
        self._tx_fifo: Deque[TxRingDescriptor] = deque()
        #: frames waiting for FIFO room, each with the callback that
        #: resumes its producer (None for the collective engine)
        self._tx_fifo_waiting: Deque[Tuple[TxRingDescriptor, Optional[Callable[[], None]]]] = deque()
        self._wire_idle = True
        self.frames_sent = 0
        self.frames_received = 0
        self.rx_overflow_drops = 0
        self.rx_crc_drops = 0
        self.tx_collision_drops = 0
        #: optional step tracing (the end-to-end journey tracer uses it)
        self.trace = TraceRecorder(enabled=False)

    def _span(self, label: str, start: float) -> None:
        self.trace.record(start, self.sim.now - start, "nic", f"{self.name}: {label}")

    def attach(self, attachment: Attachment) -> None:
        self.attachment = attachment
        # late-bound so fault injectors can interpose on _on_frame
        attachment.set_receiver(lambda frame: self._on_frame(frame))

    # ------------------------------------------------------------- transmit
    # The transmit engine, the wire side and the receive path are call_in
    # state machines: each callback ends one step and schedules the next.
    # A poll demand, a FIFO hand-over and a freed FIFO slot take effect
    # through a zero-delay callback, so the ring scan, the carrier sense
    # and the kernel's CPU queue see everything else due this instant.
    def poll_demand(self) -> None:
        """Kernel side: tell the chip to scan its transmit ring."""
        if not self._tx_running:
            self._tx_running = True
            self.sim.call_in(0.0, self._tx_next)

    def _tx_next(self) -> None:
        """Fetch the next transmit descriptor, or stop when the ring is empty."""
        was_full = self.tx_ring.is_full
        descriptor = self.tx_ring.try_pop()
        if descriptor is None:
            self._tx_running = False
            return
        if was_full and self.on_tx_space is not None:
            self.on_tx_space()
        self.sim.call_in(self.timings.tx_descriptor_fetch_us, self._tx_fetched, descriptor,
                         self.sim.now)

    def _tx_fetched(self, descriptor: TxRingDescriptor, t0: float) -> None:
        self._span("fetch TX descriptor", t0)
        # DMA the kernel header buffer + the user data buffer
        frame_bytes = ETH_HEADER_SIZE + len(descriptor.frame.payload)
        self.dma.start(frame_bytes, self._tx_moved, descriptor, self.sim.now)

    def _tx_moved(self, descriptor: TxRingDescriptor, t0: float) -> None:
        self._span("DMA frame into FIFO", t0)
        self.sim.call_in(self.timings.tx_fifo_threshold_us, self._tx_filled, descriptor)

    def _tx_filled(self, descriptor: TxRingDescriptor) -> None:
        # the frame now sits in the chip FIFO: the host buffers are
        # no longer needed even though the wire may lag behind
        descriptor.completed = True
        if descriptor.on_complete is not None:
            descriptor.on_complete()
        self._fifo_put(descriptor, self._tx_next)

    def _fifo_put(self, descriptor: TxRingDescriptor,
                  resume: Optional[Callable[[], None]]) -> None:
        """Stage a frame for the wire; a full FIFO parks it (and its
        producer) until the wire takes a frame."""
        if len(self._tx_fifo) >= TX_FIFO_FRAMES:
            self._tx_fifo_waiting.append((descriptor, resume))
            return
        if self._wire_idle:
            self._wire_idle = False
            self.sim.call_in(0.0, self._wire_send, descriptor)
        else:
            self._tx_fifo.append(descriptor)
        if resume is not None:
            self.sim.call_in(0.0, resume)

    def _wire_send(self, descriptor: TxRingDescriptor) -> None:
        self.attachment.send(descriptor.frame, partial(self._wire_done, self.sim.now))

    def _wire_done(self, t0: float, error: Optional[Exception]) -> None:
        if error is None:
            self._span("serialize frame onto the wire", t0)
            self.frames_sent += 1
        elif isinstance(error, ExcessiveCollisions):
            self.tx_collision_drops += 1
        else:
            raise error
        if not self._tx_fifo:
            self._wire_idle = True
            return
        descriptor = self._tx_fifo.popleft()
        resume = None
        if self._tx_fifo_waiting:
            waiting, resume = self._tx_fifo_waiting.popleft()
            self._tx_fifo.append(waiting)
        self.sim.call_in(0.0, self._wire_send, descriptor)
        if resume is not None:
            self.sim.call_in(0.0, resume)

    # -------------------------------------------------------------- receive
    def _on_frame(self, frame: EthernetFrame) -> None:
        if frame.dst_mac != self.mac:
            return  # hub broadcast not addressed to us: filtered in hardware
        if frame.corrupted:
            # the chip's CRC checker rejects damaged frames in hardware
            self.rx_crc_drops += 1
            return
        # per-frame work starts in the urgent tier of this instant, ahead
        # of the NORMAL work already due now
        if self.collective_rx is not None and frame.dst_port == COLLECTIVE_PORT:
            self.sim._call_urgent(self.sim.call_in, self.timings.collective_op_us,
                                  self._rx_collective, frame)
            return
        self.sim._call_urgent(self._rx_start, frame)

    # ---------------------------------------------------- collective engine
    # A what-if extension (the DC21140 itself has no programmable core):
    # a small on-controller engine consumes and originates collective
    # packets without touching host memory.  See DESIGN.md.
    def _rx_collective(self, frame: EthernetFrame) -> None:
        self.collective_rx(frame.payload)

    def send_collective(self, frame: EthernetFrame) -> None:
        """Collective engine TX: the controller originates the frame —
        no trap, no descriptor ring, no host DMA."""
        self.sim._call_urgent(self.sim.call_in, self.timings.collective_op_us, self._fifo_put,
                              TxRingDescriptor(frame=frame, completed=True), None)

    def _rx_start(self, frame: EthernetFrame) -> None:
        if self.rx_ring.is_full:
            self.rx_overflow_drops += 1
            return
        self.sim.call_in(self.timings.rx_dma_start_us, self._rx_dma, frame, self.sim.now)

    def _rx_dma(self, frame: EthernetFrame, t0: float) -> None:
        self.dma.start(ETH_HEADER_SIZE + len(frame.payload), self._rx_moved, frame, t0)

    def _rx_moved(self, frame: EthernetFrame, t0: float) -> None:
        self._span("DMA frame into host ring buffer", t0)
        if not self.rx_ring.try_push(RxRingBuffer(frame=frame)):
            self.rx_overflow_drops += 1
            return
        self.frames_received += 1
        self.sim.call_in(self.timings.rx_interrupt_delay_us, self._rx_interrupt, self.sim.now)

    def _rx_interrupt(self, t0: float) -> None:
        self._span("raise receive interrupt", t0)
        if self.interrupt is not None:
            self.interrupt()
