"""Active Messages over U-Net/OS: the polled wall-clock driver.

:class:`LiveAm` runs the protocol of :mod:`repro.am.core` — the same
state machine the simulated :class:`~repro.am.am.AmEndpoint` runs, on
the same wire format (:mod:`repro.am.protocol`) and with the same
observable-event vocabulary, which is what lets one
:class:`~repro.conformance.observe.ObservationProbe` check the same
online invariants against either substrate.  What it adds is only I/O,
time and waiting:

* the clock is the injected :class:`~repro.core.clock.Clock`;
* a packet reaches U-Net through :meth:`LiveAm._push_wire`, which rides
  out transport backpressure with a bounded retry;
* nothing blocks: ``start_request`` returns ``None`` when the window,
  credit or HELLO gate refuses admission, and :meth:`LiveAm.service`
  does one pass of ingress dispatch plus the deadline checks that
  stand in for timers (delayed acks, retransmission, HELLO retransmit,
  heartbeats and credit refresh);
* request handlers are plain functions, and ``ctx.reply`` sends
  synchronously.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from ..am.core import AmConfig, AmCore, AmError, PeerState, RequestContext
from ..am.protocol import TYPE_ACK, TYPE_HELLO, TYPE_REPLY, TYPE_REQUEST, Packet, encode
from ..core.errors import EndpointError, PeerUnavailableError
from .backend import LiveUserEndpoint

__all__ = ["LiveAm", "LiveRequestContext"]

#: bounded busy-retry of a transport-backpressured send before giving up
_SEND_RETRIES = 400
_SEND_RETRY_SLEEP_US = 25.0

#: handed to live request handlers; ``reply`` sends synchronously
LiveRequestContext = RequestContext


class LiveAm(AmCore):
    """An Active Messages endpoint bound to one live U-Net endpoint."""

    def __init__(self, node_id: int, user: LiveUserEndpoint,
                 config: Optional[AmConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.clock = user.backend.clock
        #: the driver clock, bound once: the core reads it on every packet
        self._now = self.clock.now_us
        super().__init__(node_id, user, config, rng)
        #: rpc fates keyed by (peer node, request seq): the reply's
        #: ``(args, data)``, or the PeerUnavailableError of an abandoned
        #: request, which rpc_result raises
        self.rpc_results: Dict[Tuple[int, int], object] = {}
        self._rpc_outstanding: set = set()
        now = self.clock.now_us()
        self._next_credit_refresh = now + self.config.credit_update_us
        self._next_heartbeat = (
            now + self.config.heartbeat_us
            if self.config.recovery and self.config.heartbeat_us > 0 else None)

    # ------------------------------------------------------ driver hooks
    @property
    def _max_pdu(self) -> int:
        return self.user.backend.max_pdu

    def _spawn(self, tag: str, fn, *args) -> None:
        fn(*args)

    def _complete_rpc(self, node: int, req_seq: int, result) -> None:
        key = (node, req_seq)
        if key in self._rpc_outstanding:
            self._rpc_outstanding.discard(key)
            self.rpc_results[key] = result

    def _fail_rpc(self, node: int, seq: int, message: str) -> None:
        self._complete_rpc(node, seq, PeerUnavailableError(message, peer=node, seq=seq))

    def _crash_rpcs(self) -> None:
        for key in list(self._rpc_outstanding):
            self._fail_rpc(*key, f"incarnation {self.epoch} of node {self.node} crashed")

    def _peer(self, node: int) -> PeerState:
        try:
            return self._peers_by_node[node]
        except KeyError:
            raise AmError(f"node {node} is not a connected peer "
                          f"of node {self.node}") from None

    @property
    def idle(self) -> bool:
        """Nothing in flight: every peer fully acknowledged."""
        return all(not p.unacked for p in self._peers_by_node.values())

    # ------------------------------------------------------------- sending
    def start_request(self, dest: int, handler: int, args=(),
                      data: bytes = b"") -> Optional[int]:
        """Try to admit and transmit one request.

        Returns the assigned sequence number, or None when the window,
        credit or HELLO gate refuses admission — the caller services the
        world and retries (the polled analogue of blocking).
        """
        self._check_incarnation()
        peer = self._peer(dest)
        if len(data) > self.max_data:
            raise AmError(f"data block of {len(data)} bytes exceeds "
                          f"packet maximum {self.max_data}")
        blocked = self._gate(peer)
        if blocked is not None:
            if blocked == "credit" and not peer.stalled:
                # count one stall per episode, not one per poll
                peer.stalled = True
                peer.credit_stalls += 1
                self._observe("credit_stall", peer,
                              remote_credit=peer.remote_credit)
            return None
        peer.stalled = False
        packet = self._sequenced(peer, TYPE_REQUEST, handler=handler, args=args, data=data)
        self._transmit(peer, packet, track=True)
        return packet.seq

    def start_rpc(self, dest: int, handler: int, args=(),
                  data: bytes = b"") -> Optional[int]:
        """Like :meth:`start_request`, but registers for the reply.

        Poll :meth:`rpc_result` with the returned seq for completion.
        """
        seq = self.start_request(dest, handler, args=args, data=data)
        if seq is not None:
            self._rpc_outstanding.add((dest, seq))
        return seq

    def rpc_result(self, dest: int, seq: int) -> Optional[Tuple[tuple, bytes]]:
        """The reply for request ``seq``, consumed, or None if pending.

        Raises :class:`PeerUnavailableError` when the request was
        abandoned (peer declared dead or restarted) — the polled
        analogue of the simulated endpoint failing the rpc waiter.
        """
        result = self.rpc_results.pop((dest, seq), None)
        if isinstance(result, PeerUnavailableError):
            raise result
        return result

    def request(self, dest: int, handler: int, args=(), data: bytes = b"",
                pump: Optional[Callable[[], None]] = None,
                limit_us: float = 5_000_000.0) -> int:
        """Blocking convenience: poll until the request is admitted."""
        seq = self._poll_until(self.clock.now_us() + limit_us, pump,
                               self.start_request, dest, handler, args, data)
        if seq is None:
            raise AmError(f"request to node {dest} not admitted "
                          f"within {limit_us:.0f}us")
        return seq

    def rpc(self, dest: int, handler: int, args=(), data: bytes = b"",
            pump: Optional[Callable[[], None]] = None,
            limit_us: float = 5_000_000.0) -> Tuple[tuple, bytes]:
        """Blocking convenience: request + wait for the matching reply."""
        deadline = self.clock.now_us() + limit_us
        seq = self._poll_until(deadline, pump, self.start_rpc, dest, handler, args, data)
        if seq is None:
            raise AmError(f"rpc to node {dest} not admitted within {limit_us:.0f}us")
        result = self._poll_until(deadline, pump, self.rpc_result, dest, seq)
        if result is None:
            raise AmError(f"rpc {seq} to node {dest} got no reply "
                          f"within {limit_us:.0f}us")
        return result

    def _poll_until(self, deadline: float, pump: Optional[Callable[[], None]],
                    attempt: Callable, *args):
        """Service the world until ``attempt(*args)`` returns non-None,
        or the deadline passes (None)."""
        while True:
            result = attempt(*args)
            if result is not None or self.clock.now_us() >= deadline:
                return result
            if pump is not None:
                pump()
            else:
                self.user.backend.service()
                self.service()

    def _send_reply(self, dest: int, req_seq: int, args, data: bytes) -> None:
        # replies bypass the request window (deadlock avoidance) but are
        # still sequenced, tracked, and retransmitted
        peer = self._peer(dest)
        packet = self._sequenced(peer, TYPE_REPLY, req_seq=req_seq, args=args, data=data)
        self._transmit(peer, packet, track=True)

    def _send_ack(self, peer: PeerState) -> None:
        self.acks_sent += 1
        self._transmit(peer, Packet(type=TYPE_ACK), track=False)

    def _send_hello(self, peer: PeerState, ptype: int) -> None:
        self._transmit(peer, Packet(type=ptype), track=False)

    def _hello(self, peer: PeerState) -> None:
        """Send one HELLO; :meth:`_run_timers` retransmits it on schedule
        until the peer's HELLO-ACK closes the loop."""
        self._send_hello(peer, TYPE_HELLO)
        peer.next_hello_at = self.clock.now_us() + self.config.hello_retry_us

    def _transmit(self, peer: PeerState, packet: Packet, track: bool) -> None:
        self._stamp(peer, packet, track)
        self._push_wire(peer, encode(packet))

    def _retransmit(self, peer: PeerState, seq: Optional[int] = None) -> None:
        packet = self._resend_packet(peer, seq)
        if packet is not None:
            self._push_wire(peer, encode(packet))

    def _push_wire(self, peer: PeerState, wire: bytes) -> None:
        """Hand one encoded packet to U-Net, riding out backpressure.

        A full send queue here means the transport is refusing datagrams
        (peer's kernel buffer full); kicking retries the syscall.  The
        retry budget is the live stand-in for the simulated endpoint's
        wait on send-queue space.
        """
        if self.user.backend.closed:
            return  # teardown race: an armed timer fired after close()
        for attempt in range(_SEND_RETRIES):
            try:
                # batched backends defer the doorbell: the packet rides
                # the next service pass's sendmmsg flush with its peers
                self.user.send(peer.channel, wire,
                               kick=not self.user.backend.defer_kick)
                return
            except EndpointError:
                self.user.backend.kick(self.user.endpoint)
                self.clock.sleep_us(_SEND_RETRY_SLEEP_US)
        raise AmError(
            f"node {self.node}: transport backpressure did not clear after "
            f"{_SEND_RETRIES} retries sending to node {peer.node}")

    # ------------------------------------------------------------ polling
    def service(self, max_messages: int = 64) -> int:
        """One polling pass: dispatch ingress, then run the timers.

        Returns the number of AM packets consumed.  Call this (plus the
        backend's ``service``) from the application's doorbell loop.
        """
        if self.user.backend.closed:
            return 0  # teardown: never touch a closed transport
        consumed = 0
        for _ in range(max_messages):
            message = self.user.poll()
            if message is None:
                break
            consumed += 1
            if self._crashed:
                continue  # the process is gone: drain and discard
            # charge the configured per-message receiver cost for real: a
            # "slow receiver" conformance case must be slow on the wall
            # clock too, or the credit machinery it exists to exercise
            # never engages
            if self.config.dispatch_overhead_us > 1.0:
                self.clock.sleep_us(self.config.dispatch_overhead_us)
            for _result in self._receive(message.channel_id, message.data):
                pass  # live handlers run synchronously inside delivery
        self._run_timers()
        return consumed

    def _run_timers(self) -> None:
        if not self._running or self._crashed:
            return
        now = self.clock.now_us()
        cfg = self.config
        for peer in self._peers_by_node.values():
            if cfg.recovery and peer.reconnecting and now >= peer.next_hello_at:
                self._hello(peer)
            if cfg.recovery and not peer.alive:
                continue  # no acks, no retransmits toward a corpse
            if peer.ack_deadline is not None and now >= peer.ack_deadline:
                self._send_ack(peer)
            if peer.unacked:
                rto = self._current_rto(peer)
                if now - peer.last_progress >= rto and self._rto_fired(peer, rto):
                    self._retransmit(peer)
        if self._next_heartbeat is not None and now >= self._next_heartbeat:
            self._next_heartbeat = now + cfg.heartbeat_us
            self._heartbeat_tick()
        if cfg.credit_flow and now >= self._next_credit_refresh:
            self._next_credit_refresh = now + cfg.credit_update_us
            for peer in self._stale_credit_peers():
                self._send_ack(peer)
