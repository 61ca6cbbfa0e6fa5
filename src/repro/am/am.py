"""Active Messages over simulated U-Net: the discrete-event driver.

:class:`AmEndpoint` runs the protocol of :mod:`repro.am.core` — every
reliability, flow-control, congestion and recovery decision — on the
simulator.  What it adds is only I/O, time and waiting:

* the clock is ``sim.now``;
* a packet reaches U-Net through ``yield from user.send`` under the
  peer's ``tx_lock``, so packets from concurrent senders cannot
  overtake each other (compose times differ with size; reordering
  would trip go-back-N);
* senders block on simulator events (window, credit, HELLO waiters),
  and timers are processes: the per-peer retransmit timer, delayed
  acks, HELLO retransmission, heartbeats and credit refresh;
* request handlers may be generators, run with ``yield from`` before
  the next in-order packet is delivered.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generator, Optional, Tuple

from ..core.api import UserEndpoint
from ..core.errors import PeerUnavailableError, StaleEpochError
from ..sim import Event, Resource, Simulator
from .core import AmConfig, AmCore, AmError, PeerState, RequestContext
from .protocol import TYPE_ACK, TYPE_HELLO, TYPE_REPLY, TYPE_REQUEST, Packet, encode

__all__ = ["AmConfig", "AmEndpoint", "RequestContext", "AmError"]


class AmEndpoint(AmCore):
    """An Active Messages endpoint bound to one U-Net endpoint.

    One AM endpoint serves one node; peers are added with
    :meth:`connect_peer` after U-Net channels have been created by the
    substrate's signaling/channel service.
    """

    def __init__(self, node_id: int, user_endpoint: UserEndpoint, config: Optional[AmConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.sim: Simulator = user_endpoint.sim
        super().__init__(node_id, user_endpoint, config, rng)
        #: on-demand channel establishment: called with a node id the
        #: first time it is addressed; expected to set up the channel
        #: (signaling is off the critical path, zero simulated time) and
        #: ``connect_peer`` both ends.  Lets a cluster skip the O(N^2)
        #: eager full mesh.
        self.peer_resolver: Optional[Callable[[int], None]] = None
        #: rpc completion events keyed by (peer node, request seq)
        self._rpc_waiters: Dict[Tuple[int, int], Event] = {}
        self.sim.process(self._dispatch_loop(), name=f"am{node_id}.dispatch")
        if self.config.credit_flow:
            self.sim.process(self._credit_refresh_loop(), name=f"am{node_id}.credit")
        if self.config.recovery and self.config.heartbeat_us > 0:
            self.sim.process(self._heartbeat_loop(), name=f"am{node_id}.hb")

    # ------------------------------------------------------ driver hooks
    def _now(self) -> float:
        return self.sim.now

    @property
    def _max_pdu(self) -> int:
        return self.user.host.backend.max_pdu

    def _spawn(self, tag: str, fn, *args) -> None:
        self.sim.process(fn(*args), name=f"am{self.node}.{tag}")

    def _new_peer(self, node: int, channel: int) -> PeerState:
        peer = super()._new_peer(node, channel)
        peer.tx_lock = Resource(self.sim, capacity=1, name=f"am.peer{node}.tx")
        return peer

    def _complete_rpc(self, node: int, req_seq: int, result) -> None:
        waiter = self._rpc_waiters.pop((node, req_seq), None)
        if waiter is not None:
            waiter.succeed(result)

    def _fail_rpc(self, node: int, seq: int, message: str) -> None:
        waiter = self._rpc_waiters.pop((node, seq), None)
        if waiter is not None:
            waiter.fail(PeerUnavailableError(message, peer=node, seq=seq))

    def _crash_rpcs(self) -> None:
        waiters, self._rpc_waiters = self._rpc_waiters, {}
        for (dest, seq), event in waiters.items():
            event.fail(StaleEpochError(
                f"rpc seq {seq} to node {dest} was issued by the dead "
                f"incarnation {self.epoch} of node {self.node}"))

    def _peer(self, node: int) -> PeerState:
        peer = self._peers_by_node.get(node)
        if peer is None and self.peer_resolver is not None:
            self.peer_resolver(node)
            peer = self._peers_by_node.get(node)
        if peer is None:
            raise AmError(f"node {node} is not a connected peer of node {self.node}")
        return peer

    # ------------------------------------------------------------- sending
    def request(self, dest: int, handler: int, args=(), data: bytes = b"") -> Generator:
        """Process: send a request (reliable, flow controlled)."""
        self._check_incarnation()
        peer = self._peer(dest)
        if len(data) > self.max_data:
            raise AmError(f"data block of {len(data)} bytes exceeds packet maximum {self.max_data}")
        yield from self._acquire_window(peer)
        packet = yield from self._send_sequenced(
            peer, None, TYPE_REQUEST, handler=handler, args=args, data=data)
        return packet.seq

    def rpc(self, dest: int, handler: int, args=(), data: bytes = b"") -> Generator:
        """Process: request + wait for the matching reply.

        Returns ``(args, data)`` from the reply.  Must not be called from
        inside a handler (the dispatch loop would deadlock).
        """
        self._check_incarnation()
        peer = self._peer(dest)
        done = self.sim.event(name=f"am{self.node}.rpc")
        yield from self._acquire_window(peer)
        yield from self._send_sequenced(
            peer, done, TYPE_REQUEST, handler=handler, args=args, data=data)
        reply = yield done
        return reply

    def _send_reply(self, dest: int, req_seq: int, args, data: bytes) -> Generator:
        # replies bypass the request window (deadlock avoidance) but are
        # still sequenced and retransmitted, so they take the tx lock
        yield from self._send_sequenced(
            self._peer(dest), None, TYPE_REPLY, req_seq=req_seq, args=args, data=data)

    def _send_sequenced(self, peer: PeerState, done: Optional[Event], ptype: int,
                        **fields) -> Generator:
        """Sequence and transmit one request or reply under the tx lock;
        an rpc's ``done`` event is registered before transmitting, since
        the reply can race the send."""
        yield peer.tx_lock.acquire()
        try:
            packet = self._sequenced(peer, ptype, **fields)
            if done is not None:
                self._rpc_waiters[(peer.node, packet.seq)] = done
            yield from self._transmit(peer, packet, track=True)
        finally:
            peer.tx_lock.release()
        return packet

    def _send_ack(self, peer: PeerState) -> Generator:
        self.acks_sent += 1
        yield from self._transmit(peer, Packet(type=TYPE_ACK), track=False)

    def _send_hello(self, peer: PeerState, ptype: int) -> Generator:
        # the stamped ack carries this side's receive horizon: the next
        # sequence number it will accept from the peer
        yield from self._transmit(peer, Packet(type=ptype), track=False)

    def _transmit(self, peer: PeerState, packet: Packet, track: bool) -> Generator:
        self._stamp(peer, packet, track)
        yield from self.user.send(peer.channel, encode(packet))

    def _retransmit(self, peer: PeerState, seq: Optional[int] = None) -> Generator:
        yield peer.tx_lock.acquire()
        try:
            packet = self._resend_packet(peer, seq)
            if packet is not None:
                yield from self.user.send(peer.channel, encode(packet))
        finally:
            peer.tx_lock.release()

    def _acquire_window(self, peer: PeerState) -> Generator:
        while True:
            blocked = self._gate(peer)
            if blocked is None:
                return
            if blocked == "hello":
                waiters = peer.hello_waiters
            elif blocked == "window":
                waiters = peer.window_waiters
            else:
                peer.credit_stalls += 1
                self._observe("credit_stall", peer, remote_credit=peer.remote_credit)
                waiters = peer.credit_waiters
            event = self.sim.event(name=f"am{self.node}.{blocked}")
            waiters.append(event)
            yield event

    # ------------------------------------------------------ processes
    def _dispatch_loop(self) -> Generator:
        while self._running:
            message = yield from self.user.recv()
            if self._crashed:
                continue  # a dead process neither dispatches nor acks
            yield self.sim.timeout(self.config.dispatch_overhead_us)
            if self._crashed:
                continue
            for handler_run in self._receive(message.channel_id, message.data):
                yield from handler_run

    def _arm_rto(self, peer: PeerState) -> None:
        self.sim.process(self._retransmit_timer(peer), name=f"am{self.node}.rto")

    def _retransmit_timer(self, peer: PeerState) -> Generator:
        while peer.unacked and self._running:
            timeout = self._current_rto(peer)
            yield self.sim.timeout(timeout / 2)
            if not peer.unacked or not self._running:
                break
            if self._crashed or not peer.alive:
                break  # a corpse neither sends nor is worth sending to
            if self._peers_by_node.get(peer.node) is not peer:
                break  # superseded by a restart's fresh peer state
            if self.sim.now - peer.last_progress >= timeout:
                if not self._rto_fired(peer, timeout):
                    break  # the timeout declared the peer dead
                yield from self._retransmit(peer)
        peer.timer_running = False

    def _arm_delayed_ack(self, peer: PeerState) -> None:
        self.sim.process(self._delayed_ack(peer), name=f"am{self.node}.dack")

    def _delayed_ack(self, peer: PeerState) -> Generator:
        yield self.sim.timeout(self.config.ack_delay_us)
        if peer.ack_deadline is not None and self._running:
            yield from self._send_ack(peer)

    def _hello(self, peer: PeerState) -> Generator:
        """Retransmit HELLO until the peer's HELLO-ACK closes the loop."""
        my_epoch = self.epoch
        while (self._running and not self._crashed and peer.reconnecting
               and self.epoch == my_epoch
               and self._peers_by_node.get(peer.node) is peer):
            yield from self._send_hello(peer, TYPE_HELLO)
            yield self.sim.timeout(self.config.hello_retry_us)

    def _heartbeat_loop(self) -> Generator:
        """Epoch-stamped keepalives + silent-peer detection (opt-in)."""
        while self._running:
            yield self.sim.timeout(self.config.heartbeat_us)
            if not self._running:
                break
            if not self._crashed:
                self._heartbeat_tick()

    def _credit_refresh_loop(self) -> Generator:
        """Re-advertise when capacity changed and no traffic carried it."""
        while self._running:
            yield self.sim.timeout(self.config.credit_update_us)
            if not self._running:
                break
            for peer in self._stale_credit_peers():
                yield from self._send_ack(peer)
