"""The AM protocol core driven directly: no simulator, no sockets.

A fake driver supplies a manual clock and records every output the core
asks for — fresh sends, retransmissions, timer arms, rpc fates — so
each decision is checked at the exact input that triggers it.
"""

from types import SimpleNamespace

import pytest

from repro.am.core import AmConfig, AmCore
from repro.am.protocol import TYPE_ACK, TYPE_REQUEST, Packet, encode
from repro.conformance.checker import inject_bug


class _Queue(list):
    def __init__(self, capacity: int, fill: int) -> None:
        super().__init__(range(fill))
        self.capacity = capacity


class _Endpoint:
    def __init__(self) -> None:
        self.recv_queue = _Queue(capacity=8, fill=0)
        self.free_queue = _Queue(capacity=8, fill=8)
        self.drops = []

    def note_drop(self, kind: str) -> None:
        self.drops.append(kind)


class FakeDriver(AmCore):
    """Manual clock; every output lands in ``self.log``."""

    _max_pdu = 1500

    def __init__(self, config: AmConfig) -> None:
        self.t = 0.0
        self.log = []
        super().__init__(0, SimpleNamespace(endpoint=_Endpoint()), config)
        self.connect_peer(1, channel_id=5)
        self.peer = self._peers_by_node[1]

    def _now(self) -> float:
        return self.t

    def _spawn(self, tag, fn, *args) -> None:
        fn(*args)

    def _arm_rto(self, peer) -> None:
        self.log.append(("arm_rto",))

    def _arm_delayed_ack(self, peer) -> None:
        self.log.append(("arm_delayed_ack",))

    def _transmit(self, peer, packet, track) -> None:
        self._stamp(peer, packet, track)
        self.log.append(("send", packet.type, packet.seq))

    def _send_ack(self, peer) -> None:
        self._transmit(peer, Packet(type=TYPE_ACK), track=False)

    def _send_hello(self, peer, ptype) -> None:
        self._transmit(peer, Packet(type=ptype), track=False)

    def _hello(self, peer) -> None:
        self.log.append(("hello",))

    def _retransmit(self, peer, seq=None) -> None:
        packet = self._resend_packet(peer, seq)
        if packet is not None:
            self.log.append(("rexmit", packet.seq))

    def _complete_rpc(self, node, req_seq, result) -> None:
        self.log.append(("rpc_done", node, req_seq))

    def _fail_rpc(self, node, seq, message) -> None:
        self.log.append(("rpc_failed", node, seq, message))

    def _crash_rpcs(self) -> None:
        self.log.append(("crash_rpcs",))

    # -- inputs ----------------------------------------------------------
    def send_requests(self, n: int) -> None:
        for i in range(n):
            assert self._gate(self.peer) is None
            self._transmit(self.peer, self._sequenced(
                self.peer, TYPE_REQUEST, handler=1, args=(i,)), track=True)

    def arrive(self, **fields) -> None:
        for _ in self._receive(5, encode(Packet(**fields))):
            pass

    def outputs(self, kind: str):
        return [entry[1:] for entry in self.log if entry[0] == kind]


def test_rto_retransmits_only_the_go_back_n_head():
    core = FakeDriver(AmConfig())
    core.send_requests(3)
    assert core.outputs("arm_rto") == [()]  # one timer covers the window
    rto = core._current_rto(core.peer)

    assert core._rto_fired(core.peer, rto)
    core._retransmit(core.peer)
    assert core.outputs("rexmit") == [(0,)]
    assert core.peer.timeouts == 1 and core.peer.rexmit_seqs == {0}


def test_sack_holes_are_retransmitted_once_per_round():
    core = FakeDriver(AmConfig(ack_mode="sack"))
    core.send_requests(4)
    # the receiver holds 2 and 3 (bit i = ack + 1 + i), so 0 and 1 are holes
    core.arrive(type=TYPE_ACK, ack=0, sack_bits=0b110)
    assert core.outputs("rexmit") == [(0,), (1,)]
    assert core.peer.sacked == {2, 3}

    core.arrive(type=TYPE_ACK, ack=0, sack_bits=0b110)
    assert core.outputs("rexmit") == [(0,), (1,)]  # same round: no resend

    assert core._rto_fired(core.peer, core._current_rto(core.peer))  # a new round
    core.arrive(type=TYPE_ACK, ack=0, sack_bits=0b110)
    assert core.outputs("rexmit") == [(0,), (1,), (0,), (1,)]


def test_ecn_backoff_halves_the_window_once_per_round():
    core = FakeDriver(AmConfig(adaptive_window=True, congestion="ecn"))
    core.send_requests(4)
    core.arrive(type=TYPE_ACK, ack=0, ece=True)
    assert core.peer.cwnd == 8.0 and core.peer.ecn_round_end == 4

    core.arrive(type=TYPE_ACK, ack=2, ece=True)  # same round: ignored
    assert core.peer.ecn_backoffs == 1

    core.arrive(type=TYPE_ACK, ack=4, ece=True)  # the round edge is acked
    assert core.peer.ecn_backoffs == 2
    assert core.peer.cwnd == pytest.approx((8.0 + 2 / 8.0 + 2 / 8.25) / 2)


def test_credit_gate_blocks_at_exactly_zero():
    core = FakeDriver(AmConfig(credit_flow=True))
    core.peer.remote_credit = 1
    assert core._gate(core.peer) is None
    core.peer.remote_credit = 0
    assert core._gate(core.peer) == "credit"
    # one patch of the core seam breaks the gate for every driver
    with inject_bug("credit-gate"):
        assert core._gate(core.peer) is None
    assert core._gate(core.peer) == "credit"


def test_epoch_fence_and_reconnect_split():
    core = FakeDriver(AmConfig(recovery=True))
    core.peer.remote_epoch = 1
    core.send_requests(3)

    # a dead incarnation's traffic is fenced before it can ack anything
    core.arrive(type=TYPE_ACK, ack=3, epoch=0, peer_epoch=0)
    assert core.user.endpoint.drops == ["stale_epoch_drops"]
    assert len(core.peer.unacked) == 3

    # the peer returns as epoch 2: nothing in flight is replayed
    core.arrive(type=TYPE_ACK, ack=0, epoch=2, peer_epoch=0)
    assert core.peer.remote_epoch == 2 and not core.peer.unacked
    assert [entry[:2] for entry in core.outputs("rpc_failed")] == [(1, 0), (1, 1), (1, 2)]
    assert core.peer.abandoned == 3 and core.peer.next_seq == 0

    # the replay-horizon bug leaves the window in flight and renumbers
    # new sends after it
    core.send_requests(2)
    with inject_bug("replay-horizon"):
        core.arrive(type=TYPE_ACK, ack=0, epoch=3, peer_epoch=0)
    assert list(core.peer.unacked) == [0, 1] and core.peer.next_seq == 2
