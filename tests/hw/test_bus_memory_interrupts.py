"""Tests for bus/DMA timing, buffer areas, and interrupt coalescing."""

import pytest

from repro.hw import PCI_BUS, SBUS, Buffer, BufferArea, BufferAreaError, DmaEngine, InterruptController, PENTIUM_120
from repro.sim import Simulator

# ---------------------------------------------------------------- bus


def test_bus_transfer_time_grows_with_size():
    assert PCI_BUS.transfer_time(1500) > PCI_BUS.transfer_time(100) > PCI_BUS.transfer_time(0)


def test_bus_burst_quantization():
    # 97 bytes needs two 96-byte PCI bursts; 96 needs one
    one = PCI_BUS.transfer_time(96)
    two = PCI_BUS.transfer_time(97)
    assert two - one > PCI_BUS.per_burst_us * 0.9


def test_sbus_slower_than_pci():
    assert SBUS.transfer_time(1024) > PCI_BUS.transfer_time(1024)


def test_dma_engine_serializes_on_shared_bus():
    sim = Simulator()
    dma = DmaEngine(sim, PCI_BUS)
    done = []

    def finished(tag):
        done.append((tag, sim.now))

    dma.start(960, finished, "a")
    dma.start(960, finished, "b")
    sim.run()
    t_single = PCI_BUS.transfer_time(960)
    assert done[0][1] == pytest.approx(t_single)
    assert done[1][1] == pytest.approx(2 * t_single)
    assert dma.transfers == 2
    assert dma.bytes_transferred == 1920


def test_dma_engines_share_bus_resource():
    sim = Simulator()
    nic = DmaEngine(sim, PCI_BUS, name="nic")
    disk = DmaEngine(sim, PCI_BUS, shared_bus=nic.arbiter, name="disk")
    order = []

    def finished(tag):
        order.append((tag, sim.now))

    nic.start(960, finished, "nic")
    disk.start(960, finished, "disk")
    sim.run()
    assert order[1][1] == pytest.approx(2 * PCI_BUS.transfer_time(960))


def test_dma_waiter_granted_before_finished_transfer_continues():
    """A transfer that completes while another waits on the same bus
    hands the bus over first; only then does its continuation run.  A
    continuation that starts a new transfer therefore queues behind the
    waiter, and the waiter's transfer ends ahead of anything the
    continuation schedules for that same instant."""
    sim = Simulator()
    nic = DmaEngine(sim, PCI_BUS, name="nic")
    disk = DmaEngine(sim, PCI_BUS, shared_bus=nic.arbiter, name="disk")
    events = []
    t_small = PCI_BUS.transfer_time(96)
    t_large = PCI_BUS.transfer_time(960)

    def nic_done():
        events.append(("nic-done", sim.now, disk.transfers, nic.arbiter.queued))
        # the waiter already holds the bus: this transfer queues behind it
        nic.start(96, lambda: events.append(("nic-again", sim.now)))
        sim.call_in(t_large, lambda: events.append(("probe", sim.now, disk.transfers)))

    nic.start(96, nic_done)
    disk.start(960, lambda: events.append(("disk-done", sim.now)))
    assert nic.arbiter.queued == 1
    sim.run()
    assert events == [
        ("nic-done", t_small, 0, 0),  # disk granted, not yet done, queue empty
        ("probe", t_small + t_large, 1),  # disk's transfer ended first
        ("disk-done", t_small + t_large),
        ("nic-again", t_small + t_large + t_small),
    ]
    assert (nic.transfers, disk.transfers) == (2, 1)
    assert nic.arbiter.queued == 0 and not nic.arbiter.busy


# ---------------------------------------------------------------- memory


def test_buffer_area_roundtrip():
    area = BufferArea(num_buffers=4, buffer_size=64)
    buf = area.alloc()
    buf.write(b"hello unet")
    assert buf.read() == b"hello unet"
    assert buf.length == 10
    area.free(buf)
    assert area.free_count == 4


def test_buffer_append_models_cell_reassembly():
    area = BufferArea(2, 128)
    buf = area.alloc()
    buf.append(b"A" * 48)
    buf.append(b"B" * 48)
    assert buf.length == 96
    assert buf.read() == b"A" * 48 + b"B" * 48


def test_buffer_overrun_rejected():
    area = BufferArea(1, 32)
    buf = area.alloc()
    with pytest.raises(BufferAreaError):
        buf.write(b"x" * 33)
    with pytest.raises(BufferAreaError):
        buf.write(b"x", at=32)


def test_buffer_area_exhaustion():
    area = BufferArea(2, 16)
    area.alloc()
    area.alloc()
    assert area.try_alloc() is None
    with pytest.raises(BufferAreaError):
        area.alloc()


def test_double_free_rejected():
    area = BufferArea(1, 16)
    buf = area.alloc()
    area.free(buf)
    with pytest.raises(BufferAreaError):
        area.free(buf)


def test_free_foreign_buffer_rejected():
    a = BufferArea(1, 16)
    b = BufferArea(1, 16)
    buf = a.alloc()
    with pytest.raises(BufferAreaError):
        b.free(buf)


def test_alloc_returns_cleared_buffer():
    area = BufferArea(1, 16)
    buf = area.alloc()
    buf.write(b"junk")
    area.free(buf)
    again = area.alloc()
    assert again.length == 0


def test_direct_buffer_indexing():
    area = BufferArea(3, 8)
    assert area.buffer(2).index == 2
    with pytest.raises(BufferAreaError):
        area.buffer(3)


def test_invalid_area_dimensions():
    with pytest.raises(ValueError):
        BufferArea(0, 16)
    with pytest.raises(ValueError):
        BufferArea(4, 0)


# ---------------------------------------------------------------- interrupts


def test_interrupt_entry_latency_charged():
    sim = Simulator()
    runs = []

    def handler():
        runs.append(sim.now)
        yield sim.timeout(1.0)

    ctl = InterruptController(sim, PENTIUM_120, handler)
    ctl.assert_irq()
    sim.run()
    assert runs == [pytest.approx(PENTIUM_120.interrupt_entry_us)]
    assert ctl.handler_runs == 1


def test_interrupts_coalesce_while_pending():
    sim = Simulator()
    runs = []

    def handler():
        runs.append(sim.now)
        yield sim.timeout(1.0)

    ctl = InterruptController(sim, PENTIUM_120, handler)
    ctl.assert_irq()
    ctl.assert_irq()  # still pending: coalesced
    sim.run()
    assert len(runs) == 1
    assert ctl.interrupts_asserted == 2


def test_interrupt_during_handler_triggers_rerun():
    sim = Simulator()
    runs = []
    ctl_holder = {}

    def handler():
        runs.append(sim.now)
        if len(runs) == 1:
            # a new frame arrives while the handler is copying
            ctl_holder["ctl"].assert_irq()
        yield sim.timeout(2.0)

    ctl = InterruptController(sim, PENTIUM_120, handler)
    ctl_holder["ctl"] = ctl
    ctl.assert_irq()
    sim.run()
    assert len(runs) == 2  # handler re-ran without a second entry latency
    assert runs[1] - runs[0] == pytest.approx(2.0)


def test_interrupt_after_completion_runs_again():
    sim = Simulator()
    runs = []

    def handler():
        runs.append(sim.now)
        yield sim.timeout(0.5)

    ctl = InterruptController(sim, PENTIUM_120, handler)

    def driver():
        ctl.assert_irq()
        yield sim.timeout(50.0)
        ctl.assert_irq()

    sim.process(driver())
    sim.run()
    assert len(runs) == 2
    assert not ctl.busy
