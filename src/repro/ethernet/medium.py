"""Ethernet media: the shared CSMA/CD bus (hub) and full-duplex links.

The paper contrasts Ethernet's traditionally shared medium — "all
stations compete for use of the wire, using exponential backoff
algorithms for retransmission in case of collision" — with switched
full-duplex links.  Both are modelled here behind one tiny attachment
interface so the DC21140 does not care what it is plugged into.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim import Event, Simulator
from ..sim.rng import RngRegistry
from .frames import EthernetFrame, wire_time_us

__all__ = [
    "Attachment",
    "SharedMedium",
    "HubAttachment",
    "SimplexChannel",
    "DuplexLink",
    "ExcessiveCollisions",
    "SLOT_TIME_US",
    "IFG_US",
    "JAM_US",
    "MAX_ATTEMPTS",
]

#: 512-bit slot time at 100 Mb/s
SLOT_TIME_US = 5.12
#: 96-bit inter-frame gap at 100 Mb/s
IFG_US = 0.96
#: 32-bit jam sequence plus abort overhead
JAM_US = 3.2
#: transmit attempts before the controller gives up (16, per 802.3)
MAX_ATTEMPTS = 16
#: carrier-sense blind window: a station cannot sense a transmission that
#: began less than one propagation time ago, so it starts anyway and
#: collides (64 bit times at 100 Mb/s)
COLLISION_WINDOW_US = 0.512


class ExcessiveCollisions(Exception):
    """A frame was dropped after 16 failed transmission attempts."""


class Attachment:
    """What a NIC plugs into.

    ``send`` starts putting a frame on the wire and calls
    ``done(error)`` once it is off: ``error`` is None, or the
    :class:`ExcessiveCollisions` that dropped the frame.  Sending starts
    in the urgent tier of the calling instant and ``done`` runs one
    zero-delay hop after the wire time ends: the slots a transmit
    process's start-up and completion events take.  ``transmit`` is the
    same send as a generator, for callers that are processes.
    ``receive`` is a callback the NIC installs to learn about inbound
    frames.
    """

    def send(self, frame: EthernetFrame, done: Callable[[Optional[Exception]], None]) -> None:
        raise NotImplementedError

    def transmit(self, frame: EthernetFrame):
        raise NotImplementedError

    def set_receiver(self, receive: Callable[[EthernetFrame], None]) -> None:
        raise NotImplementedError


class _ActiveTx:
    __slots__ = ("station", "collision", "start")

    def __init__(self, station: "HubAttachment", collision: Event, start: float) -> None:
        self.station = station
        self.collision = collision
        self.start = start


class SharedMedium:
    """Half-duplex CSMA/CD broadcast bus (a 100BaseTX hub).

    Stations that find the medium idle after the same inter-frame gap
    start in the same simulation instant and collide; each jams, backs
    off by a random number of slot times (binary exponential backoff),
    and retries, exactly the classic algorithm.
    """

    def __init__(self, sim: Simulator, rate_mbps: float = 100.0, rng: Optional[RngRegistry] = None) -> None:
        self.sim = sim
        self.rate_mbps = rate_mbps
        self.rng = (rng or RngRegistry()).stream("ethernet.backoff")
        self.stations: List["HubAttachment"] = []
        self._active: List[_ActiveTx] = []
        self._idle_waiters: List[Event] = []
        self.collisions = 0
        self.frames_carried = 0
        self.drops_excessive_collisions = 0

    def attach(self) -> "HubAttachment":
        station = HubAttachment(self)
        self.stations.append(station)
        return station

    @property
    def busy(self) -> bool:
        return bool(self._active)

    def _wait_idle(self) -> Event:
        event = self.sim.event(name="medium.idle")
        if not self.busy:
            event.succeed()
        else:
            self._idle_waiters.append(event)
        return event

    def _gone_idle(self) -> None:
        if not self._active:
            waiters, self._idle_waiters = self._idle_waiters, []
            for event in waiters:
                event.succeed()

    def _in_blind_window(self) -> bool:
        """True when an active transmission is too young to be sensed."""
        return any(self.sim.now - tx.start < COLLISION_WINDOW_US for tx in self._active)

    def _transmit(self, station: "HubAttachment", frame: EthernetFrame):
        attempts = 0
        while True:
            # carrier sense, then wait the inter-frame gap
            while self.busy and not self._in_blind_window():
                yield self._wait_idle()
            yield self.sim.timeout(IFG_US)
            if self.busy and not self._in_blind_window():
                continue
            tx = _ActiveTx(station, self.sim.event(name="collision"), self.sim.now)
            self._active.append(tx)
            if len(self._active) > 1:
                # starts within the blind window: everyone active collides
                self.collisions += 1
                for active in list(self._active):
                    if not active.collision.triggered:
                        active.collision.succeed()
            finish = self.sim.timeout(wire_time_us(frame, self.rate_mbps))
            yield self.sim.any_of([finish, tx.collision])
            if tx.collision.triggered:
                self._active.remove(tx)
                self._gone_idle()
                yield self.sim.timeout(JAM_US)
                attempts += 1
                if attempts >= MAX_ATTEMPTS:
                    self.drops_excessive_collisions += 1
                    raise ExcessiveCollisions(f"frame dropped after {attempts} attempts")
                backoff_slots = self.rng.randrange(0, 2 ** min(attempts, 10))
                yield self.sim.timeout(backoff_slots * SLOT_TIME_US)
                continue
            # success: broadcast to every other station
            self._active.remove(tx)
            self._gone_idle()
            self.frames_carried += 1
            for other in self.stations:
                if other is not station and other.receive is not None:
                    other.receive(frame)
            return


class HubAttachment(Attachment):
    """One station's tap on a :class:`SharedMedium`."""

    def __init__(self, medium: SharedMedium) -> None:
        self.medium = medium
        self.receive: Optional[Callable[[EthernetFrame], None]] = None

    def send(self, frame: EthernetFrame, done: Callable[[Optional[Exception]], None]) -> None:
        # CSMA/CD carrier sense and backoff stay a process
        transmit = self.medium.sim.process(self.medium._transmit(self, frame))
        transmit.callbacks.append(lambda proc: done(None if proc.ok else proc.value))

    def transmit(self, frame: EthernetFrame):
        yield from self.medium._transmit(self, frame)

    def set_receiver(self, receive: Callable[[EthernetFrame], None]) -> None:
        self.receive = receive


class SimplexChannel:
    """One direction of a full-duplex link: serialize, propagate, deliver.

    Like :class:`~repro.atm.phy.CellLink` this is analytic: ``submit``
    computes the serialization window from a running busy-until clock
    and schedules the delivery callback directly — no pump process, no
    store, and no completion event: ``submit`` returns the serialization
    time, for a sender that waits on it.  The late-bound ``deliver``
    attribute is read at fire time so fault pipelines can interpose.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_mbps: float = 100.0,
        propagation_us: float = 0.5,
        name: str = "chan",
        deliver_at_header: bool = False,
        buffer_frames: Optional[int] = None,
    ) -> None:
        from .frames import ETH_HEADER_SIZE, ETH_PREAMBLE_BYTES

        self.sim = sim
        self.rate_mbps = rate_mbps
        self.propagation_us = propagation_us
        self.name = name
        #: deliver as soon as the header has arrived (feeds a cut-through
        #: switch, which starts forwarding before end-of-frame); the
        #: channel still stays busy for the full serialization time.
        self.deliver_at_header = deliver_at_header
        #: finite output buffering: frames beyond this depth are dropped
        self.buffer_frames = buffer_frames
        self._header_time = (ETH_PREAMBLE_BYTES + ETH_HEADER_SIZE) * 8 / rate_mbps
        self._busy_until = 0.0
        self._pending = 0
        self.deliver: Optional[Callable[[EthernetFrame], None]] = None
        self.frames_carried = 0
        self.frames_dropped = 0

    def submit(self, frame: EthernetFrame) -> float:
        """Queue ``frame``; returns how long from now until it has fully
        serialized onto the wire (0.0, if the buffer drops it).

        One frame may be serializing plus ``buffer_frames`` queued
        behind it; a queue slot frees at that frame's end-of-wire time.
        """
        sim = self.sim
        if self.buffer_frames is not None and self._pending > self.buffer_frames:
            self.frames_dropped += 1
            return 0.0  # dropped: the sender's wire time is over
        now = sim.now
        start = self._busy_until if self._busy_until > now else now
        total = wire_time_us(frame, self.rate_mbps)
        end = start + total
        self._busy_until = end
        if self.buffer_frames is not None:
            self._pending += 1
            sim.call_in(end - now, self._serialized_one)
        deliver_at = (start + min(self._header_time, total)
                      if self.deliver_at_header else end)
        sim.call_in(deliver_at + self.propagation_us - now, self._deliver_one, frame)
        return end - now

    @property
    def queued(self) -> int:
        """Frames accepted but not yet fully serialized (incl. in flight)."""
        if self.buffer_frames is not None:
            return self._pending
        return 1 if self._busy_until > self.sim.now else 0

    def _serialized_one(self) -> None:
        self._pending -= 1

    def _deliver_one(self, frame: EthernetFrame) -> None:
        self.frames_carried += 1
        if self.deliver is not None:
            self.deliver(frame)


class DuplexLink(Attachment):
    """The NIC side of a full-duplex point-to-point link (to a switch).

    ``uplink`` carries frames away from the NIC; the switch pushes
    frames for the NIC into ``downlink``, whose deliver callback feeds
    the NIC's receiver.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_mbps: float = 100.0,
        propagation_us: float = 0.5,
        name: str = "link",
        uplink_delivers_at_header: bool = False,
    ) -> None:
        self.sim = sim
        self.uplink = SimplexChannel(
            sim, rate_mbps, propagation_us, name=f"{name}.up", deliver_at_header=uplink_delivers_at_header
        )
        self.downlink = SimplexChannel(sim, rate_mbps, propagation_us, name=f"{name}.down")

    def send(self, frame: EthernetFrame, done: Callable[[Optional[Exception]], None]) -> None:
        self.sim._call_urgent(self._send, frame, done)

    def _send(self, frame: EthernetFrame, done: Callable[[Optional[Exception]], None]) -> None:
        # full duplex: the only wait is our own uplink serialization;
        # ``done`` runs one hop after it, where a transmit process's
        # completion event fired
        self.sim.call_in(self.uplink.submit(frame), self.sim.call_in, 0.0, done, None)

    def transmit(self, frame: EthernetFrame):
        yield self.sim.timeout(self.uplink.submit(frame))

    def set_receiver(self, receive: Callable[[EthernetFrame], None]) -> None:
        self.downlink.deliver = receive
