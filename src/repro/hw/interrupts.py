"""Interrupt delivery from devices to the (simulated) kernel.

The DC21140 raises an interrupt per received frame; the kernel's U-Net
receive routine then drains the device ring, amortizing one handler
invocation over every pending frame (Section 4.3.3).  The controller
models exactly that: an assertion while the handler is pending or
running is *coalesced* — the handler re-checks the ring before
returning, so no frame is lost and no redundant handler runs.
"""

from __future__ import annotations

from typing import Callable

from ..sim import Simulator
from .cpu import CpuModel

__all__ = ["InterruptController"]


class InterruptController:
    """Delivers device interrupts to a kernel handler.

    ``handler(done)`` starts one handler run, with the interrupt-entry
    latency already charged, and calls ``done()`` when the run returns.
    Devices call :meth:`assert_irq`.

    The controller is a ``call_in`` state machine that keeps the heap
    slots of the dispatcher and handler processes it replaces: entry
    starts in the urgent tier of the asserting instant, each handler
    run starts in the urgent tier of its own instant, and the
    controller learns that a run returned one zero-delay hop after
    ``done()``, where the handler process's completion event fired.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: CpuModel,
        handler: Callable[[Callable[[], None]], None],
        name: str = "irq",
    ) -> None:
        self.sim = sim
        self.cpu = cpu
        self.handler = handler
        self.name = name
        self._pending = False
        self._running = False
        self._rerun = False
        self.interrupts_asserted = 0
        self.handler_runs = 0

    @property
    def busy(self) -> bool:
        return self._pending or self._running

    def assert_irq(self) -> None:
        """Signal the interrupt line.

        Coalesced if a handler run is already pending or in progress.
        """
        self.interrupts_asserted += 1
        if self._running:
            self._rerun = True
            return
        if self._pending:
            return
        self._pending = True
        self.sim._call_urgent(self.sim.call_in, self.cpu.interrupt_entry_us, self._entered)

    def _entered(self) -> None:
        self._pending = False
        self._running = True
        self._run()

    def _run(self) -> None:
        self._rerun = False
        self.handler_runs += 1
        self.sim._call_urgent(self.handler, self._handler_returned)

    def _handler_returned(self) -> None:
        self.sim.call_in(0.0, self._after_run)

    def _after_run(self) -> None:
        if self._rerun:
            self._run()
        else:
            self.sim.call_in(self.cpu.interrupt_return_us, self._returned)

    def _returned(self) -> None:
        self._running = False
