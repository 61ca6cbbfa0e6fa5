"""Tests for the shared CSMA/CD medium and full-duplex links."""

import pytest

from repro.ethernet import EthernetFrame, SharedMedium, SimplexChannel, wire_time_us
from repro.sim import RngRegistry, Simulator


def _frame(payload=b"x" * 40, dst=2, src=1):
    return EthernetFrame(dst_mac=dst, src_mac=src, dst_port=1, src_port=1, payload=payload)


def test_single_sender_delivers_to_all_other_stations():
    sim = Simulator()
    medium = SharedMedium(sim)
    a, b, c = medium.attach(), medium.attach(), medium.attach()
    got_b, got_c = [], []
    b.set_receiver(lambda f: got_b.append(sim.now))
    c.set_receiver(lambda f: got_c.append(sim.now))
    a.set_receiver(lambda f: pytest.fail("sender must not hear its own frame"))

    def tx():
        yield from a.transmit(_frame())

    sim.process(tx())
    sim.run()
    # IFG then full serialization
    expect = 0.96 + wire_time_us(_frame())
    assert got_b == [pytest.approx(expect)]
    assert got_c == [pytest.approx(expect)]
    assert medium.frames_carried == 1
    assert medium.collisions == 0


def test_carrier_sense_defers_second_sender():
    sim = Simulator()
    medium = SharedMedium(sim)
    a, b = medium.attach(), medium.attach()
    b.set_receiver(lambda f: None)
    a.set_receiver(lambda f: None)
    done = []

    def tx(station, delay, tag):
        yield sim.timeout(delay)
        yield from station.transmit(_frame())
        done.append((tag, sim.now))

    sim.process(tx(a, 0.0, "a"))
    sim.process(tx(b, 2.0, "b"))  # starts while a is transmitting
    sim.run()
    assert medium.collisions == 0
    t_a = dict(done)["a"]
    t_b = dict(done)["b"]
    # b's frame serialized after a's finished, plus an IFG
    assert t_b >= t_a + wire_time_us(_frame())


def test_simultaneous_starts_collide_and_backoff_resolves():
    sim = Simulator()
    medium = SharedMedium(sim, rng=RngRegistry(7))
    a, b = medium.attach(), medium.attach()
    a.set_receiver(lambda f: None)
    b.set_receiver(lambda f: None)
    finished = []

    def tx(station, tag):
        yield from station.transmit(_frame())
        finished.append(tag)

    sim.process(tx(a, "a"))
    sim.process(tx(b, "b"))
    sim.run()
    assert medium.collisions >= 1
    assert sorted(finished) == ["a", "b"]  # both eventually delivered
    assert medium.frames_carried == 2


def test_contention_degrades_aggregate_efficiency():
    """Section 4: 'contention for the shared medium might degrade
    performance as more hosts are added'."""

    def total_time(n_stations, frames_each=5):
        sim = Simulator()
        medium = SharedMedium(sim, rng=RngRegistry(11))
        stations = [medium.attach() for _ in range(n_stations)]
        for s in stations:
            s.set_receiver(lambda f: None)

        def tx(station):
            for _ in range(frames_each):
                yield from station.transmit(_frame(b"p" * 500))

        for s in stations:
            sim.process(tx(s))
        sim.run()
        return sim.now, medium.collisions

    t2, c2 = total_time(2)
    t8, c8 = total_time(8)
    # 4x the frames take more than 4x the time once collisions kick in
    assert c8 > c2
    assert t8 > 4 * t2 * 0.9


def test_simplex_channel_orders_and_delays():
    sim = Simulator()
    chan = SimplexChannel(sim, propagation_us=1.0)
    seen = []
    chan.deliver = lambda f: seen.append((f.payload, sim.now))
    f1, f2 = _frame(b"a" * 100), _frame(b"b" * 100)
    chan.submit(f1)
    chan.submit(f2)
    sim.run()
    assert [p for p, _t in seen] == [b"a" * 100, b"b" * 100]
    assert seen[0][1] == pytest.approx(wire_time_us(f1) + 1.0)
    assert seen[1][1] == pytest.approx(2 * wire_time_us(f1) + 1.0)


def test_simplex_submit_completion_event():
    sim = Simulator()
    chan = SimplexChannel(sim)
    chan.deliver = lambda f: None
    times = []

    def tx():
        # submit returns the time until the frame is off the wire
        yield sim.timeout(chan.submit(_frame()))
        times.append(sim.now)

    sim.process(tx())
    sim.run()
    assert times == [pytest.approx(wire_time_us(_frame()))]


def test_deliver_at_header_mode():
    sim = Simulator()
    chan = SimplexChannel(sim, propagation_us=0.0, deliver_at_header=True)
    arrivals = []
    chan.deliver = lambda f: arrivals.append(sim.now)
    big = _frame(b"x" * 1400)
    serialized = chan.submit(big)
    sim.run()
    header_time = (8 + 14) * 8 / 100.0
    assert arrivals == [pytest.approx(header_time)]
    # the channel itself stayed busy for the full frame
    assert serialized == pytest.approx(wire_time_us(big))
    chan.submit(big)
    sim.run()
    assert arrivals[1] == pytest.approx(wire_time_us(big) + header_time)
