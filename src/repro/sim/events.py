"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized by
SimPy, re-implemented here from scratch): simulation processes are Python
generators that ``yield`` :class:`Event` objects and are resumed when the
event fires.  An :class:`Event` carries a value (delivered as the result of
the ``yield``) or an exception (raised at the ``yield`` site).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .engine import Simulator

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "StopProcess",
]

#: Ordering priorities for events scheduled at the same simulation time.
#: Lower values fire first.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class StopProcess(Exception):
    """Raised by a process to terminate itself early with a return value."""

    @property
    def value(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* once given a value (it is
    then queued on the simulator), and *processed* after its callbacks ran.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed", "name")

    def __init__(self, sim: "Simulator", name: Optional[str] = None) -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception raised at the yield site."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._schedule(self, delay=0.0, priority=priority)
        return self

    def _mark_processed(self) -> None:
        self._processed = True
        self.callbacks = None

    def _label(self) -> str:
        return self.name or self.__class__.__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self._label()
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{label} {state} at t={self.sim.now:.3f}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, priority: int = NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative Timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay, priority=priority)

    def _label(self) -> str:
        return self.name or f"Timeout({self.delay})"


class Process(Event):
    """Wraps a generator and drives it through the simulation.

    The process is itself an event which fires when the generator returns
    (with the generator's return value) or raises (failing the event).
    """

    __slots__ = ("generator", "_target", "_alive")

    def __init__(self, sim: "Simulator", generator: Generator, name: Optional[str] = None) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._target: Optional[Event] = None
        self._alive = True
        # Kick off the generator at the current time.
        init = Event(sim, name="process-init")
        init._triggered = True
        init._ok = True
        sim._schedule(init, delay=0.0, priority=URGENT)
        init.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self._alive:
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_event = Event(self.sim, name="interrupt")
        interrupt_event._triggered = True
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        # Interrupts do not propagate as process failures; they are thrown in.
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, delay=0.0, priority=URGENT)

    # -- generator driving -----------------------------------------------
    def _resume(self, trigger: Event) -> None:
        self._target = None
        gen = self.generator
        event: Any
        try:
            if trigger.ok:
                event = gen.send(trigger.value)
            else:
                event = gen.throw(trigger.value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except StopProcess as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._alive = False
            self.fail(exc)
            return

        if isinstance(event, (int, float)):
            event = Timeout(self.sim, float(event))
        if not isinstance(event, Event):
            self._alive = False
            self.fail(TypeError(f"process {self.name!r} yielded non-event {event!r}"))
            return
        if event.sim is not self.sim:
            self._alive = False
            self.fail(RuntimeError("yielded event belongs to a different simulator"))
            return

        if event.callbacks is None:
            # Already processed: resume immediately at the current time.
            ghost = Event(self.sim, name="ghost")
            ghost._triggered = True
            ghost._ok = event.ok
            ghost._value = event._value
            ghost.callbacks.append(self._resume)
            self.sim._schedule(ghost, delay=0.0, priority=URGENT)
            self._target = ghost
        else:
            event.callbacks.append(self._resume)
            self._target = event


class Condition(Event):
    """Fires when ``evaluate`` over the child events becomes true.

    The value is a dict mapping each fired child event to its value.
    A failing child fails the condition immediately.
    """

    def __init__(
        self,
        sim: "Simulator",
        events: Iterable[Event],
        evaluate: Callable[[List[Event], int], bool],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name=name or "Condition")
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if event.sim is not self.sim:
                raise RuntimeError("condition spans multiple simulators")
        if not self._events and self._evaluate(self._events, 0):
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:  # already processed
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed({e: e._value for e in self._events if e.processed and e.ok})


class AllOf(Condition):
    """Fires once all child events have fired."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events, lambda evs, count: count >= len(evs), name="AllOf")


class AnyOf(Condition):
    """Fires once any child event has fired (immediately, if empty)."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events, lambda evs, count: count >= 1 or not evs, name="AnyOf")
