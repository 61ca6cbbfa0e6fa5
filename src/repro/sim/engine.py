"""The discrete-event simulation engine.

Time is a ``float`` measured in **microseconds** throughout this project,
matching the units the paper reports (trap costs, round-trip latencies).
Events scheduled for the same instant fire in FIFO order of scheduling,
with an urgency tier for internal process bookkeeping, which keeps every
run fully deterministic.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import NORMAL, URGENT, AllOf, AnyOf, Event, Process, Timeout

__all__ = ["Simulator", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class _Callback:
    """A bare deferred function call on the timeline (see ``call_in``).

    Device hot paths (cell/frame forwarding, link delivery) used to spawn
    a full :class:`Process` — generator + init event + timeout event — per
    PDU.  A ``_Callback`` is one heap entry and one function call, which
    is what makes 256-node collective sweeps finish in seconds.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.fn = fn
        self.args = args


_INF = float("inf")
#: event budget of a run without ``max_events``
_UNBOUNDED = sys.maxsize


class _Never:
    """Stand-in stop condition for runs that wait on no process."""

    __slots__ = ()
    _triggered = False


_NEVER = _Never()


class Simulator:
    """Owns the event queue and the simulation clock.

    >>> sim = Simulator()
    >>> def pinger():
    ...     yield sim.timeout(5.0)
    ...     return "done"
    >>> proc = sim.process(pinger())
    >>> sim.run()
    >>> proc.value
    'done'
    >>> sim.now
    5.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._event_count = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far (for diagnostics)."""
        return self._event_count

    # -- event factories -----------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """A fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling (internal) ----------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule a bare callback ``delay`` microseconds from now.

        The analytic fast path for fire-and-forget device work: no Event,
        no generator, no Process bookkeeping — just one heap entry whose
        function runs when the clock reaches it.  Ordering relative to
        ordinary events at the same instant follows the usual FIFO
        scheduling order (NORMAL tier).
        """
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, NORMAL, self._seq, _Callback(fn, args)))

    def _call_urgent(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at the current instant, ahead of every
        NORMAL-tier entry due now: the slot a new :class:`Process`'s
        start-up event takes.  A device state machine that replaces a
        process spawned per packet uses it to keep that process's place
        in the same-instant order."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now, URGENT, self._seq, _Callback(fn, args)))

    # -- execution ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise EmptySchedule()
        self._dispatch(_INF, 1, _NEVER)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the budget ends.

        ``until`` is an absolute simulation time; the clock is advanced to it
        even if the last event fires earlier.
        """
        limit = _INF if until is None else until
        budget = _UNBOUNDED if max_events is None else max_events
        ran = self._dispatch(limit, budget, _NEVER)
        queue = self._queue
        if ran == budget and queue and queue[0][0] <= limit:
            raise RuntimeError(f"exceeded max_events={max_events} (runaway simulation?)")
        if until is not None and self._now < until:
            self._now = until

    def run_until_complete(self, process: Process, limit: float = 1e12) -> Any:
        """Run until ``process`` finishes and return its value.

        Raises the process's exception if it failed, and ``RuntimeError`` if
        the schedule drained or the time ``limit`` passed without completion.
        """
        if not process.triggered:
            self._dispatch(limit, _UNBOUNDED, process)
            if not process.triggered:
                if not self._queue:
                    raise RuntimeError(f"schedule drained before process {process.name!r} completed")
                raise RuntimeError(f"process {process.name!r} did not complete before t={limit}")
        if not process.ok:
            raise process._value
        return process.value

    def _dispatch(self, until: float, budget: int, stop: Any) -> int:
        """The one event loop behind :meth:`step`, :meth:`run` and
        :meth:`run_until_complete`; returns how many events it ran.

        Pops entries in (time, tier, scheduling order) while the next one
        is due at or before ``until`` and fewer than ``budget`` have run.
        Callers turn unset options into unbounded limits, so no event
        tests whether an option is set.  A process only finishes inside
        an event's callbacks, so ``stop`` (the process
        :meth:`run_until_complete` waits for) is tested on the event
        branch alone, never on the hotter bare-callback branch.
        """
        queue = self._queue
        pop = heapq.heappop
        count = 0
        try:
            while queue and queue[0][0] <= until and count < budget:
                when, _prio, _seq, event = pop(queue)
                self._now = when
                count += 1
                if type(event) is _Callback:
                    event.fn(*event.args)
                    continue
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif not event._ok and not getattr(event, "_defused", False):
                    # An unhandled failure (e.g. a crashed process nobody
                    # waits on) must not pass silently.
                    raise event._value
                if stop._triggered:
                    break
        finally:
            self._event_count += count
        return count
