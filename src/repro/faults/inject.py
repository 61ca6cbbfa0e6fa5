"""Attach perturbation pipelines to the substrates' delivery hooks.

Both substrates late-bind their ingress callback precisely so that
fault machinery can interpose: the DC21140 receives frames through
``nic._on_frame`` and the PCA-200 receives cells through
``backend.on_cell``.  A :class:`PerturbationPipeline` swaps such a hook
for a chain of :class:`~repro.faults.perturb.LinkPerturbation` stages
and puts it back on :meth:`~PerturbationPipeline.restore` — also
available as a context manager, so tests can scope faults to a block::

    with FramePipeline(backend, [GilbertElliott(), DelayJitter()]):
        sim.run(until=1_000_000.0)
    # hook restored here

The legacy :class:`FrameFaultInjector`/:class:`CellFaultInjector`
(drop/corrupt with a single RNG roll, primary NIC only) live on
unchanged for existing callers — now detachable the same way.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..sim.rng import RngRegistry
from .perturb import LinkPerturbation, PerturbationContext

__all__ = [
    "PerturbationPipeline",
    "FramePipeline",
    "CellPipeline",
    "attach_pipeline",
    "corrupt_frame",
    "corrupt_cell",
    "FrameFaultInjector",
    "CellFaultInjector",
]


def corrupt_frame(frame, rng: random.Random):
    """Damage one payload byte and flag the frame for the CRC checker."""
    from ..ethernet.frames import EthernetFrame

    body = bytearray(frame.payload)
    if body:
        body[rng.randrange(len(body))] ^= 0xFF
    return EthernetFrame(
        dst_mac=frame.dst_mac,
        src_mac=frame.src_mac,
        dst_port=frame.dst_port,
        src_port=frame.src_port,
        payload=bytes(body),
        corrupted=True,
    )


def corrupt_cell(cell, rng: random.Random):
    """Damage one payload byte and flag the cell."""
    from ..atm.cells import Cell

    body = bytearray(cell.payload)
    if body:
        body[rng.randrange(len(body))] ^= 0xFF
    return Cell(vci=cell.vci, payload=bytes(body), last=cell.last, corrupted=True)


class PerturbationPipeline:
    """A chain of perturbation stages interposed on delivery hooks.

    Subclasses say where the hooks live (:meth:`_hook_points`) and how to
    corrupt this substrate's PDU.  Attach happens in the constructor;
    :meth:`restore` (or leaving the ``with`` block) puts the original
    hooks back.  Stage order is pipeline order: a PDU surviving stage
    *i* feeds stage *i+1*; delays accumulate and are paid once at the
    end, preserving each stage's view of arrival time.
    """

    _corrupter = None

    def __init__(
        self,
        backend,
        perturbations: Sequence[LinkPerturbation],
        rng: Optional[RngRegistry] = None,
        prefix: str = "faults",
    ) -> None:
        self.backend = backend
        self.sim = backend.sim
        self.stages: List[LinkPerturbation] = list(perturbations)
        self.registry = rng or RngRegistry()
        ctx = PerturbationContext(self.sim, self.registry, type(self)._corrupter, prefix)
        for stage in self.stages:
            stage.attach(ctx)
        self.injected = 0
        self.delivered = 0
        self._saved: Optional[List[Tuple[object, str, object]]] = None
        self.attach()

    # ------------------------------------------------------------ lifecycle
    def _hook_points(self) -> List[Tuple[object, str]]:
        raise NotImplementedError

    @property
    def attached(self) -> bool:
        return self._saved is not None

    def attach(self) -> "PerturbationPipeline":
        """Interpose on every hook point (idempotent)."""
        if self._saved is not None:
            return self
        self._saved = []
        for owner, attr in self._hook_points():
            original = getattr(owner, attr)
            shadowed = attr in vars(owner)
            setattr(owner, attr, lambda pdu, _deliver=original: self._inject(pdu, _deliver))
            self._saved.append((owner, attr, original, shadowed))
        return self

    def restore(self) -> None:
        """Put the original delivery hooks back (idempotent)."""
        if self._saved is None:
            return
        for owner, attr, original, shadowed in self._saved:
            if shadowed:
                setattr(owner, attr, original)
            else:
                # the hook was a plain method: drop our instance override
                delattr(owner, attr)
        self._saved = None

    #: legacy spelling
    remove = restore

    def __enter__(self) -> "PerturbationPipeline":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    # ------------------------------------------------------------- datapath
    def _inject(self, pdu, deliver) -> None:
        self.injected += 1
        self._feed(0, pdu, 0.0, deliver)

    def _feed(self, index: int, pdu, delay: float, deliver) -> None:
        if index == len(self.stages):
            if delay <= 0.0:
                self.delivered += 1
                deliver(pdu)
            else:
                # a delayed delivery starts in the urgent tier of this
                # instant, as the process it replaces did
                self.sim._call_urgent(self.sim.call_in, delay, self._deliver_later, pdu, deliver)
            return
        stage = self.stages[index]
        stage.process(pdu, self.sim.now,
                      lambda p, d=0.0: self._feed(index + 1, p, delay + d, deliver))

    def _deliver_later(self, pdu, deliver) -> None:
        self.delivered += 1
        deliver(pdu)

    # ------------------------------------------------------------- reporting
    def stats(self) -> dict:
        stage_stats = {}
        for i, stage in enumerate(self.stages):
            counters = stage.counters()
            if counters:
                stage_stats[f"{i}:{stage.label}"] = counters
        return {"injected": self.injected, "delivered": self.delivered,
                "stages": stage_stats}


class FramePipeline(PerturbationPipeline):
    """Perturb Ethernet frames arriving at one host's NIC(s).

    Interposes on every controller the kernel services, so Beowulf-style
    bonded (dual-NIC) backends are perturbed on both rails.
    """

    _corrupter = staticmethod(corrupt_frame)

    def _hook_points(self) -> List[Tuple[object, str]]:
        if hasattr(self.backend, "rx_fault_hooks"):
            return list(self.backend.rx_fault_hooks())
        return [(nic, "_on_frame") for nic in getattr(self.backend, "nics", [self.backend.nic])]


class CellPipeline(PerturbationPipeline):
    """Perturb ATM cells arriving at one host's PCA-200."""

    _corrupter = staticmethod(corrupt_cell)

    def _hook_points(self) -> List[Tuple[object, str]]:
        if hasattr(self.backend, "rx_fault_hooks"):
            return list(self.backend.rx_fault_hooks())
        return [(self.backend, "on_cell")]


def attach_pipeline(
    backend,
    perturbations: Sequence[LinkPerturbation],
    rng: Optional[RngRegistry] = None,
    prefix: str = "faults",
) -> PerturbationPipeline:
    """Attach ``perturbations`` to ``backend``, whichever substrate it is."""
    if hasattr(backend, "on_cell"):
        return CellPipeline(backend, perturbations, rng=rng, prefix=prefix)
    if hasattr(backend, "nic"):
        return FramePipeline(backend, perturbations, rng=rng, prefix=prefix)
    raise TypeError(f"no known delivery hook on backend {backend!r}")


class _LegacyInjector:
    """Shared machinery of the original drop/corrupt injectors.

    One RNG roll per PDU decides its fate (``roll < drop_rate`` drops,
    ``roll < drop_rate + corrupt_rate`` corrupts) — kept bit-for-bit so
    seeded tests written against the old ``analysis.faults`` module see
    identical fault patterns.
    """

    _corrupter = None

    def __init__(
        self,
        backend,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        rng: Optional[RngRegistry] = None,
        stream: str = "faults",
    ) -> None:
        if not 0.0 <= drop_rate <= 1.0 or not 0.0 <= corrupt_rate <= 1.0:
            raise ValueError("rates must be within [0, 1]")
        self.backend = backend
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.rng = (rng or RngRegistry()).stream(stream)
        self.dropped = 0
        self.corrupted = 0
        self._saved = None
        self.attach()

    def _hook_point(self) -> Tuple[object, str]:
        raise NotImplementedError

    @property
    def attached(self) -> bool:
        return self._saved is not None

    def attach(self) -> "_LegacyInjector":
        if self._saved is None:
            owner, attr = self._hook_point()
            original = getattr(owner, attr)
            self._saved = (owner, attr, original, attr in vars(owner))
            self._original = original
            setattr(owner, attr, self._interpose)
        return self

    def restore(self) -> None:
        """Uninstall the injector (idempotent)."""
        if self._saved is None:
            return
        owner, attr, original, shadowed = self._saved
        if shadowed:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
        self._saved = None

    #: historical name
    remove = restore

    def __enter__(self) -> "_LegacyInjector":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    def _interpose(self, pdu) -> None:
        roll = self.rng.random()
        if roll < self.drop_rate:
            self.dropped += 1
            return
        if roll < self.drop_rate + self.corrupt_rate:
            pdu = type(self)._corrupter(pdu, self.rng)
            self.corrupted += 1
        self._original(pdu)


class FrameFaultInjector(_LegacyInjector):
    """Drops and/or corrupts Ethernet frames arriving at one NIC.

    Corrupted frames are flagged (and their bytes damaged); the DC21140's
    hardware CRC checker then rejects them, so to the layers above a
    corruption is indistinguishable from a loss — as on real Ethernet.
    """

    _corrupter = staticmethod(corrupt_frame)

    def __init__(self, backend, drop_rate: float = 0.0, corrupt_rate: float = 0.0,
                 rng: Optional[RngRegistry] = None, stream: str = "faults.frames") -> None:
        super().__init__(backend, drop_rate, corrupt_rate, rng=rng, stream=stream)

    def _hook_point(self) -> Tuple[object, str]:
        return (self.backend.nic, "_on_frame")


class CellFaultInjector(_LegacyInjector):
    """Drops and/or corrupts ATM cells arriving at one PCA-200."""

    _corrupter = staticmethod(corrupt_cell)

    def __init__(self, backend, drop_rate: float = 0.0, corrupt_rate: float = 0.0,
                 rng: Optional[RngRegistry] = None, stream: str = "faults.cells") -> None:
        super().__init__(backend, drop_rate, corrupt_rate, rng=rng, stream=stream)

    def _hook_point(self) -> Tuple[object, str]:
        return (self.backend, "on_cell")
