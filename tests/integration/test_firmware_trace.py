"""Whole step sequences of the PCA-200 and DC21140 firmware, pinned.

A small scripted scenario drives every firmware path under contention
with one shared :class:`TraceRecorder`; the resulting list of
``(start, duration, category, step, begin)`` records must equal the
committed fixture exactly.  The interleaving of steps across NICs and
paths depends on the order the engine pops same-instant heap entries,
so this catches a firmware or engine change that reorders them even
when every per-message latency still looks right.

The fixture was recorded from the generator-process firmware that the
``call_in`` state machines replaced.  Regenerate it with
``PYTHONPATH=src python tests/integration/test_firmware_trace.py``
only when a step's timing is meant to change.
"""

import json
from pathlib import Path

from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.ethernet import HubNetwork, SwitchedNetwork
from repro.hw import PCI_BUS, PENTIUM_120, SPARCSTATION_20
from repro.sim import Simulator, TraceRecorder

FIXTURE = Path(__file__).with_name("firmware_trace.json")

SMALL_BUFFERS = EndpointConfig(num_buffers=16, buffer_size=128)


def _records(recorder):
    return [[r.start, r.duration, r.category, r.step, bool(r.info.get("begin"))]
            for r in recorder.records]


def _sender(sim, user, channel, payloads, gap_us=0.0):
    def run():
        for payload in payloads:
            yield from user.send(channel, payload)
            if gap_us:
                yield sim.timeout(gap_us)
    sim.process(run())


def _receiver(sim, user, got):
    def run():
        while True:
            msg = yield from user.recv()
            got.append(msg.data)
    sim.process(run())


def atm_scenario():
    """Fast path, chained-buffer spill, no-buffer and quarantine drops,
    two doorbells queued, RX/TX DMA contention, collective send+combine."""
    sim = Simulator()
    rec = TraceRecorder()
    net = AtmNetwork(sim)
    h1 = net.add_host("h1", SPARCSTATION_20, trace=rec)
    h2 = net.add_host("h2", SPARCSTATION_20, trace=rec)
    h3 = net.add_host("h3", SPARCSTATION_20, trace=rec)
    a1 = h1.create_endpoint(rx_buffers=16)
    b1 = h1.create_endpoint(rx_buffers=16)
    fast2 = h2.create_endpoint(rx_buffers=16)
    spill2 = h2.create_endpoint(config=SMALL_BUFFERS, rx_buffers=8)
    none2 = h2.create_endpoint(rx_buffers=0)
    short2 = h2.create_endpoint(config=SMALL_BUFFERS, rx_buffers=1)
    quar2 = h2.create_endpoint(rx_buffers=16)
    quar2.endpoint.quarantined = True
    c3 = h3.create_endpoint(rx_buffers=16)
    ch_a_fast, ch_fast_a = net.connect(a1, fast2)
    ch_b_spill, _ = net.connect(b1, spill2)
    ch_c_none, _ = net.connect(c3, none2)
    ch_c_short, _ = net.connect(c3, short2)
    ch_c_quar, _ = net.connect(c3, quar2)

    got = []
    for user in (a1, fast2, spill2, short2, quar2):
        _receiver(sim, user, got)
    # two endpoints of h1 ring their doorbells back to back
    _sender(sim, a1, ch_a_fast, [b"ping", bytes(range(200)) * 5, b"x" * 40])
    _sender(sim, b1, ch_b_spill, [bytes(range(100)) * 3])
    # h2 streams back to h1 while receiving: its TX and RX DMA share a bus
    _sender(sim, fast2, ch_fast_a, [b"y" * 1000, b"z" * 1000, b"pong"])
    _sender(sim, c3, ch_c_none, [b"n" * 200])
    _sender(sim, c3, ch_c_short, [b"s" * 300])
    _sender(sim, c3, ch_c_quar, [b"q" * 8, b"Q" * 200], gap_us=3.0)

    # NIC-resident collective: h1 -> h2 combine, h2 forwards to h1
    vci_12, vci_21 = net.connect_collective(h1.backend, h2.backend)
    combined = []

    def combine(payload):
        combined.append(payload)
        h2.backend.send_collective(vci_21, payload[::-1])

    h2.backend.register_collective_vci(vci_12, combine)
    h1.backend.register_collective_vci(vci_21, combined.append)

    def collective():
        yield sim.timeout(5.0)
        h1.backend.send_collective(vci_12, b"c" * 8)
        h1.backend.send_collective(vci_12, bytes(range(120)))
    sim.process(collective())

    sim.run(until=2000.0)
    return rec, (h1.backend, h2.backend, h3.backend), got, combined


def fe_scenario(hub):
    """TX ring (FIFO back-pressure), RX frames, collective send/receive;
    on the hub, simultaneous senders collide and back off."""
    sim = Simulator()
    rec = TraceRecorder()
    net = HubNetwork(sim) if hub else SwitchedNetwork(sim)
    h1 = net.add_host("h1", PENTIUM_120, trace=rec)
    h2 = net.add_host("h2", PENTIUM_120, trace=rec)
    for host in (h1, h2):
        host.backend.nic.trace = rec
    u1 = h1.create_endpoint(rx_buffers=16)
    u2 = h2.create_endpoint(rx_buffers=16)
    ch1, ch2 = net.connect(u1, u2)
    got = []
    _receiver(sim, u1, got)
    _receiver(sim, u2, got)
    _sender(sim, u1, ch1, [b"a" * 1400, b"b" * 1400, b"c" * 1400, b"d" * 60])
    _sender(sim, u2, ch2, [b"e" * 1400, b"f" * 20])

    combined = []

    def combine(payload):
        combined.append(payload)
        h2.backend.send_collective(h1.backend.mac, payload[::-1])

    h2.backend.register_collective(combine)
    h1.backend.register_collective(combined.append)

    def collective():
        yield sim.timeout(20.0)
        h1.backend.send_collective(h2.backend.mac, b"k" * 16)
        h1.backend.send_collective(h2.backend.mac, b"K" * 300)
    sim.process(collective())

    sim.run(until=3000.0)
    return rec, (h1.backend, h2.backend), got, combined


def _all_records():
    return {
        "atm": _records(atm_scenario()[0]),
        "fe-switched": _records(fe_scenario(hub=False)[0]),
        "fe-hub": _records(fe_scenario(hub=True)[0]),
    }


def test_atm_scenario_covers_every_firmware_path():
    rec, (h1, h2, h3), got, combined = atm_scenario()
    steps = [r.step for r in rec.records]
    assert "single-cell fast path (no buffer alloc)" in steps
    assert "collective engine send" in steps and "collective engine combine" in steps
    assert len(combined) == 4  # two combined on h2, both echoed to h1
    assert h2.no_buffer_drops == 2  # one at the first cell, one mid-spill
    assert h2.quarantine_drops == 2
    # the 300-byte PDU spills into a second and a third 128-byte buffer
    assert bytes(range(100)) * 3 in got
    # DMA contention: a fast-path receive DMA (at most 16 + 40 bytes)
    # waited for the bus behind a transmit DMA
    longest = PCI_BUS.transfer_time(16 + 40)
    assert any(r.step == "DMA message into receive descriptor"
               and r.duration > longest + 1e-9 for r in rec.records)
    # h1's second doorbell queues behind its first: four endpoints send,
    # so four TX firmware runs start while the first messages are out
    polls = [r.start for r in rec.records
             if r.step == "i960 polls transmit queue" and r.start < 50.0]
    assert len(polls) >= 4


def test_fe_scenarios_cover_every_controller_path():
    for hub in (False, True):
        rec, (h1, h2), got, combined = fe_scenario(hub)
        steps = {r.step for r in rec.records}
        for label in ("fetch TX descriptor", "DMA frame into FIFO",
                      "serialize frame onto the wire",
                      "DMA frame into host ring buffer", "raise receive interrupt"):
            assert f"h1.unet_fe.nic: {label}" in steps, (hub, label)
        assert len(got) == 6
        assert len(combined) == 4
    assert h1.nic.attachment.medium.collisions > 0


def test_firmware_step_trace_matches_fixture():
    expected = json.loads(FIXTURE.read_text())
    actual = _all_records()
    for name in expected:
        assert actual[name] == expected[name], name


def _dump(scenarios):
    """One record per line, so a fixture diff shows the steps that moved."""
    parts = []
    for name, records in scenarios.items():
        rows = ",\n".join("  " + json.dumps(record) for record in records)
        parts.append(f"{json.dumps(name)}: [\n{rows}\n]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    FIXTURE.write_text(_dump(_all_records()))
