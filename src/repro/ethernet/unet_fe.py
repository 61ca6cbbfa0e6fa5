"""U-Net/FE: the in-kernel U-Net implementation over the DC21140.

"The in-kernel implementation of U-Net is best described as a protected
co-routine available to user processes" (Section 4.3).  Sending is a
fast trap into the kernel, which services the user's U-Net send queue
onto the device descriptor ring and issues a transmit poll demand
(Figure 3, ~4.2 us of processor time).  Receiving is interrupt driven:
the handler demultiplexes each frame by its U-Net port, copies the data
into the destination endpoint's buffer area (or, under 64 bytes,
directly into the receive descriptor), and bumps the device ring
(Figure 4, ~4.1 us for 40 bytes / ~5.6 us for 100 bytes).

Every step of both paths is traced, which is how the benchmark harness
regenerates the two timeline figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, Optional, Tuple

from ..core.base import UNetBackend
from ..core.descriptors import SMALL_MESSAGE_MAX, RecvDescriptor
from ..core.endpoint import Endpoint
from ..core.mux import ShardedDemux
from ..hw.bus import PCI_BUS, BusModel
from ..hw.cpu import CpuModel
from ..hw.interrupts import InterruptController
from ..sim import Event, Resource, Simulator, TraceRecorder
from .dc21140 import Dc21140, NicTimings, TxRingDescriptor
from .frames import COLLECTIVE_PORT, UNET_FE_MAX_PDU, EthernetFrame, MacAddress
from .ip import UNET_FE_IP_MAX_PDU, IpHeaderError, IpTag, build_ipv4_udp, parse_ipv4_udp

__all__ = ["FeTimings", "UNetFeBackend", "TX_TRACE", "RX_TRACE"]

#: trace categories for the two kernel paths
TX_TRACE = "unet_fe.tx"
RX_TRACE = "unet_fe.rx"


@dataclass
class FeTimings:
    """Kernel service-path costs on the 120 MHz Pentium (microseconds).

    The per-step values reproduce the Figure 3 transmit timeline (total
    4.2 us with ~20% trap overhead) and the Figure 4 receive timelines
    (4.1 us for 40 bytes inline, 5.6 us for 100 bytes with a buffer
    allocation; copy cost growing 1.42 us per 100 bytes).
    """

    # -- transmit trap (Figure 3) --
    check_send_params_us: float = 0.74
    ethernet_header_setup_us: float = 0.37
    ring_descriptor_setup_us: float = 0.56
    issue_poll_demand_us: float = 0.29
    free_ring_descriptor_us: float = 0.92
    free_send_queue_entry_us: float = 0.42
    # -- receive interrupt handler (Figure 4) --
    poll_recv_ring_us: float = 0.52
    demux_us: float = 0.30
    alloc_init_recv_descriptor_us: float = 0.60
    alloc_unet_buffer_us: float = 0.71
    copy_fixed_us: float = 0.55
    bump_recv_ring_us: float = 0.40
    # -- optional IPv4 encapsulation (Section 4.4.3's proposal) --
    ip_encap_us: float = 4.5
    ip_parse_us: float = 4.0

    #: the clock these constants were measured at (Figure 3/4's host)
    REFERENCE_CLOCK_MHZ = 120.0

    def scaled(self, factor: float) -> "FeTimings":
        """Kernel-path costs on a ``factor``-times-faster host."""
        from dataclasses import fields, replace

        changes = {
            f.name: getattr(self, f.name) / factor
            for f in fields(self)
            if isinstance(getattr(self, f.name), float)
        }
        return replace(self, **changes)

    @classmethod
    def for_cpu(cls, cpu: CpuModel) -> "FeTimings":
        """Constants scaled to ``cpu``'s clock (they are all CPU work)."""
        return cls().scaled(cpu.clock_mhz / cls.REFERENCE_CLOCK_MHZ)


class UNetFeBackend(UNetBackend):
    """U-Net over a DC21140 on one host (kernel + NIC together)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu: CpuModel,
        mac: MacAddress,
        timings: Optional[FeTimings] = None,
        nic_timings: Optional[NicTimings] = None,
        bus: BusModel = PCI_BUS,
        trace: Optional[TraceRecorder] = None,
        ip_address: Optional[int] = None,
    ) -> None:
        super().__init__(sim, name)
        #: host IP address when the interface runs IPv4-encapsulated
        #: channels (Section 4.4.3's multi-switch/router proposal)
        self.ip_address = ip_address
        self.cpu = cpu
        self.mac = mac
        self.timings = timings or FeTimings.for_cpu(cpu)
        self.trace = trace or TraceRecorder(enabled=False)
        self.nic = Dc21140(sim, mac, bus=bus, timings=nic_timings, name=f"{name}.nic")
        self.nic.interrupt = self._interrupt
        #: all controllers this kernel services (Beowulf-style bonding
        #: appends a second one; see ethernet.bonding)
        self.nics = [self.nic]
        self.demux = ShardedDemux(name=f"{name}.demux")
        #: the host processor is one resource: traps and interrupt
        #: handlers serialize on it
        self.kernel_cpu = Resource(sim, capacity=1, name=f"{name}.cpu")
        self._irq = InterruptController(sim, cpu, self._rx_handler, name=f"{name}.irq")
        #: endpoints whose send queues could not be fully serviced
        #: because the device ring filled; drained on TX-done
        self._deferred_service: set = set()
        self.nic.on_tx_space = self._tx_space_available
        #: small-message receive optimization (ablation knob)
        self.small_message_optimization = True
        #: next U-Net port ID to hand out
        self._next_port = 1
        self.messages_sent = 0
        self.messages_received = 0
        self.no_buffer_drops = 0
        self.recv_queue_drops = 0
        self.quarantine_drops = 0
        self.ip_header_drops = 0

    # ------------------------------------------------------------------ API
    @property
    def max_pdu(self) -> int:
        # encapsulation headers shrink the usable PDU
        return UNET_FE_IP_MAX_PDU if self.ip_address is not None else UNET_FE_MAX_PDU

    @property
    def host_send_overhead_us(self) -> float:
        t = self.timings
        return (
            self.cpu.trap_entry_us
            + t.check_send_params_us
            + t.ethernet_header_setup_us
            + t.ring_descriptor_setup_us
            + t.issue_poll_demand_us
            + t.free_ring_descriptor_us
            + t.free_send_queue_entry_us
            + self.cpu.trap_return_us
        )

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if port >= COLLECTIVE_PORT:
            # 0xFF belongs to the NIC-resident collective engine
            raise RuntimeError("out of U-Net port IDs on this interface")
        return port

    # ---------------------------------------------------- collective engine
    def register_collective(self, handler) -> None:
        """Install the NIC-resident collective engine's packet handler."""
        self.nic.collective_rx = handler

    def send_collective(self, dst_mac: MacAddress, payload: bytes) -> None:
        """NIC-originated collective send (no trap, no kernel service)."""
        self.nic.send_collective(EthernetFrame(
            dst_mac=dst_mac, src_mac=self.mac,
            dst_port=COLLECTIVE_PORT, src_port=COLLECTIVE_PORT,
            payload=payload,
        ))

    def attach(self, attachment) -> None:
        self.nic.attach(attachment)

    def rx_fault_hooks(self):
        """Delivery hook points a fault pipeline may interpose on.

        One per controller, so bonded (dual-NIC) hosts are perturbed on
        both rails.  Returns ``(owner, attribute_name)`` pairs.
        """
        return [(nic, "_on_frame") for nic in self.nics]

    # ------------------------------------------------------------- transmit
    # The trap and the interrupt handler are call_in state machines: each
    # traced step is one callback that records the step and schedules the
    # next, with the heap slots the generator versions had.  The CPU is
    # taken through the acquire event's callback (the hop a waiting
    # process resumed at); a trap the TX-done path resumes starts in the
    # urgent tier, where its process would have started.
    def kick(self, endpoint: Endpoint) -> Generator:
        """The fast trap: service the endpoint's entire send queue.

        The caller resumes on one event, fired inside the return-from-trap
        step, so it continues in that step's heap slot.
        """
        returned = self.sim.event()
        self._trap(endpoint, returned)
        yield returned

    def _trap(self, endpoint: Endpoint, returned: Optional[Event]) -> None:
        trap = _Trap(endpoint, returned)
        self.kernel_cpu.acquire().callbacks.append(partial(self._trap_enter, trap))

    def _trap_enter(self, trap: "_Trap", _acquired: Event) -> None:
        self.sim.call_in(self.cpu.trap_entry_us, self._trap_entered, trap, self.sim.now)

    def _trap_entered(self, trap: "_Trap", start: float) -> None:
        self.trace.record(start, self.cpu.trap_entry_us, TX_TRACE, "trap entry overhead", begin=True)
        self._service_next(trap)

    def _service_next(self, trap: "_Trap") -> None:
        """Take the next send descriptor onto the device ring, or finish."""
        t = self.timings
        descriptor = None
        if self.nic.tx_ring.is_full:
            # device ring exhausted: leave the rest on the U-Net send
            # queue; the TX-done path resumes service
            self._deferred_service.add(trap.endpoint.id)
        else:
            descriptor = trap.endpoint.take_send_descriptor()
        if descriptor is not None:
            trap.descriptor = descriptor
            self._step(TX_TRACE, "check U-Net send parameters", t.check_send_params_us,
                       self._tx_checked, trap)
        elif trap.serviced:
            self._step(TX_TRACE, "issue poll demand to DC21140", t.issue_poll_demand_us,
                       self._tx_poll_demanded, trap)
        else:
            self._trap_return(trap)

    def _tx_checked(self, trap: "_Trap") -> None:
        endpoint = trap.endpoint
        binding = endpoint.channels.get(trap.descriptor.channel_id)
        if binding is None:
            trap.serviced += 1  # protection: drop silently, as hardware would
            self._service_next(trap)
            return
        trap.binding = binding
        trap.payload = b"".join(
            endpoint.buffers.buffer(idx).read(length) for idx, length in trap.descriptor.segments
        )
        self._step(TX_TRACE, "Ethernet header set-up", self.timings.ethernet_header_setup_us,
                   self._tx_header_set, trap)

    def _tx_header_set(self, trap: "_Trap") -> None:
        if isinstance(trap.binding.tag, IpTag):
            self._step(TX_TRACE, "IPv4/UDP encapsulation", self.timings.ip_encap_us,
                       self._tx_framed, trap)
        else:
            self._tx_framed(trap)

    def _tx_framed(self, trap: "_Trap") -> None:
        self._step(TX_TRACE, "device send ring descriptor set-up", self.timings.ring_descriptor_setup_us,
                   self._tx_ring_set, trap)

    def _tx_ring_set(self, trap: "_Trap") -> None:
        nic, frame = self._tx_frame(trap.binding, trap.payload)
        nic.tx_ring.push(TxRingDescriptor(
            frame=frame, on_complete=partial(trap.endpoint.send_completed, trap.descriptor)))
        trap.binding.messages_sent += 1
        self.messages_sent += 1
        trap.serviced += 1
        self._service_next(trap)

    def _tx_frame(self, binding, payload: bytes) -> Tuple[Dc21140, EthernetFrame]:
        """The controller and the frame that carry ``payload`` on ``binding``."""
        tag = binding.tag
        if isinstance(tag, IpTag):
            datagram = build_ipv4_udp(tag.src_ip, tag.dst_ip, tag.src_udp, tag.dst_udp, payload)
            # U-Net port 0 marks IP-encapsulated traffic on the wire
            return self.nic, EthernetFrame(dst_mac=tag.next_hop_mac, src_mac=self.mac,
                                           dst_port=0, src_port=0, payload=datagram)
        return self.nic, EthernetFrame(dst_mac=tag.dst_mac, src_mac=tag.src_mac,
                                       dst_port=tag.dst_port, src_port=tag.src_port, payload=payload)

    def _tx_poll_demanded(self, trap: "_Trap") -> None:
        self.nic.poll_demand()
        # steady state: each trap also reclaims the ring entries of
        # previously transmitted messages (Fig. 3 steps 6-7)
        self._step(TX_TRACE, "free send ring descriptor of previous message",
                   self.timings.free_ring_descriptor_us, self._tx_ring_freed, trap)

    def _tx_ring_freed(self, trap: "_Trap") -> None:
        self._step(TX_TRACE, "free U-Net send queue entry of previous message",
                   self.timings.free_send_queue_entry_us, self._trap_return, trap)

    def _trap_return(self, trap: "_Trap") -> None:
        self._step(TX_TRACE, "return from trap", self.cpu.trap_return_us, self._trap_returned, trap)

    def _trap_returned(self, trap: "_Trap") -> None:
        self.kernel_cpu.release()
        if trap.returned is not None:
            trap.returned._fire()

    def _tx_space_available(self) -> None:
        """TX-done: resume servicing send queues the ring cut short."""
        if not self._deferred_service or self.nic.tx_ring.is_full:
            return
        pending, self._deferred_service = self._deferred_service, set()
        for endpoint_id in pending:
            endpoint = next((e for e in self.endpoints if e.id == endpoint_id), None)
            if endpoint is not None and not endpoint.send_queue.is_empty:
                self.sim._call_urgent(self._trap, endpoint, None)

    def _step(self, category: str, label: str, duration: float, then: Callable[..., None],
              *args) -> None:
        """One traced kernel step: ``then(*args)`` runs when it ends."""
        self.sim.call_in(duration, self._step_done, category, label, duration, self.sim.now, then, args)

    def _step_done(self, category: str, label: str, duration: float, start: float,
                   then: Callable[..., None], args: tuple) -> None:
        self.trace.record(start, duration, category, label)
        then(*args)

    # -------------------------------------------------------------- receive
    def _interrupt(self) -> None:
        self._irq.assert_irq()

    def _rx_handler(self, done: Callable[[], None]) -> None:
        """The kernel receive interrupt routine (Figure 4), one run: drain
        the receive rings, then return through ``done``."""
        self.kernel_cpu.acquire().callbacks.append(partial(self._rx_entered, done))

    def _rx_entered(self, done: Callable[[], None], _acquired: Event) -> None:
        self.trace.record(self.sim.now - self.cpu.interrupt_entry_us, self.cpu.interrupt_entry_us,
                          RX_TRACE, "interrupt handler entry", begin=True)
        self._rx_poll(done)

    def _rx_poll(self, done: Callable[[], None]) -> None:
        self._step(RX_TRACE, "poll device recv ring", self.timings.poll_recv_ring_us,
                   self._rx_polled, done)

    def _rx_polled(self, done: Callable[[], None]) -> None:
        slot = None
        for nic in self.nics:
            slot = nic.rx_ring.try_pop()
            if slot is not None:
                break
        if slot is None:
            self.trace.record(self.sim.now, self.cpu.interrupt_return_us, RX_TRACE, "return from interrupt")
            self.kernel_cpu.release()
            done()
            return
        frame = slot.frame
        if frame.dst_port == 0:
            # IPv4-encapsulated traffic (port 0 marker)
            self._step(RX_TRACE, "IPv4/UDP validation", self.timings.ip_parse_us,
                       self._rx_ip_parsed, done, frame.payload)
        else:
            self._step(RX_TRACE, "demux to correct endpoint", self.timings.demux_us, self._rx_demuxed,
                       done, (frame.src_mac, frame.src_port, frame.dst_port), frame.payload)

    def _rx_ip_parsed(self, done: Callable[[], None], datagram: bytes) -> None:
        try:
            src_ip, _dst_ip, src_udp, dst_udp, _ttl, payload = parse_ipv4_udp(datagram)
        except IpHeaderError:
            self.ip_header_drops += 1
            self._rx_poll(done)
            return
        self._step(RX_TRACE, "demux to correct endpoint", self.timings.demux_us, self._rx_demuxed,
                   done, (src_ip, src_udp, dst_udp), payload)

    def _rx_demuxed(self, done: Callable[[], None], key: tuple, payload: bytes) -> None:
        target = self.demux.lookup(key)
        if target is None:
            self._rx_poll(done)
            return
        endpoint, channel_id = target
        if endpoint.quarantined:
            # containment: shed before any alloc/copy work so a
            # misbehaving endpoint stops consuming kernel time
            self.quarantine_drops += 1
            endpoint.note_drop("quarantine_drops")
            self._rx_poll(done)
            return
        self._step(RX_TRACE, "alloc+init U-Net recv descr", self.timings.alloc_init_recv_descriptor_us,
                   self._deliver_payload, done, endpoint, channel_id, payload)

    def _deliver_payload(self, done: Callable[[], None], endpoint: Endpoint, channel_id: int,
                         payload: bytes) -> None:
        if self.small_message_optimization and len(payload) <= SMALL_MESSAGE_MAX:
            copy_us = self.timings.copy_fixed_us + self.cpu.copy_time(len(payload))
            self._step(RX_TRACE, f"copy {len(payload)} byte message", copy_us,
                       self._rx_copied_inline, done, endpoint, channel_id, payload)
        else:
            self._rx_fill(done, endpoint, channel_id, payload, [], 0)

    def _rx_copied_inline(self, done: Callable[[], None], endpoint: Endpoint, channel_id: int,
                          payload: bytes) -> None:
        self._rx_deliver(done, endpoint, RecvDescriptor(channel_id=channel_id, length=len(payload),
                                                        inline=payload))

    def _rx_fill(self, done: Callable[[], None], endpoint: Endpoint, channel_id: int, payload: bytes,
                 segments: list, offset: int) -> None:
        """Copy the rest of ``payload`` from ``offset`` on, one U-Net
        buffer per step pair, then deliver it."""
        if offset < len(payload):
            self._step(RX_TRACE, "allocate U-Net recv buffer", self.timings.alloc_unet_buffer_us,
                       self._rx_allocated, done, endpoint, channel_id, payload, segments, offset)
        else:
            self._rx_deliver(done, endpoint, RecvDescriptor(channel_id=channel_id, length=len(payload),
                                                            segments=segments))

    def _rx_allocated(self, done: Callable[[], None], endpoint: Endpoint, channel_id: int,
                      payload: bytes, segments: list, offset: int) -> None:
        index = endpoint.take_free_buffer()
        if index is None:
            self.no_buffer_drops += 1
            endpoint.note_drop("no_buffer_drops")
            for idx, _l in segments:
                endpoint.free_queue.try_push(idx)
            self._rx_bump(done)
            return
        chunk = payload[offset : offset + endpoint.buffers.buffer_size]
        copy_us = self.timings.copy_fixed_us + self.cpu.copy_time(len(chunk))
        self._step(RX_TRACE, f"copy {len(chunk)} byte message", copy_us, self._rx_copied,
                   done, endpoint, channel_id, payload, segments, offset, index, chunk)

    def _rx_copied(self, done: Callable[[], None], endpoint: Endpoint, channel_id: int,
                   payload: bytes, segments: list, offset: int, index: int, chunk: bytes) -> None:
        buf = endpoint.buffers.buffer(index)
        buf.clear()
        buf.write(chunk)
        segments.append((index, len(chunk)))
        self._rx_fill(done, endpoint, channel_id, payload, segments, offset + len(chunk))

    def _rx_deliver(self, done: Callable[[], None], endpoint: Endpoint,
                    descriptor: RecvDescriptor) -> None:
        if not endpoint.deliver(descriptor):
            self.recv_queue_drops += 1
            for idx, _l in descriptor.segments:
                endpoint.free_queue.try_push(idx)
        else:
            self.messages_received += 1
        self._rx_bump(done)

    def _rx_bump(self, done: Callable[[], None]) -> None:
        self._step(RX_TRACE, "bump device recv ring", self.timings.bump_recv_ring_us,
                   self._rx_poll, done)


class _Trap:
    """One trap's progress through the caller's send queue."""

    __slots__ = ("endpoint", "returned", "serviced", "descriptor", "binding", "payload")

    def __init__(self, endpoint: Endpoint, returned: Optional[Event]) -> None:
        self.endpoint = endpoint
        #: the event the trapping process waits on (None for a trap the
        #: TX-done path resumed, which nobody waits for)
        self.returned = returned
        self.serviced = 0
        self.descriptor = None
        self.binding = None
        self.payload = b""
