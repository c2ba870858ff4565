"""The event queue: virtual time, scheduling, cancellation.

A minimal, dependency-free discrete-event core. Events fire in
timestamp order; ties break in scheduling order, which makes runs
deterministic — a property the benchmark's repeatability claim (paper
§I) depends on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf, isfinite
from typing import Callable, Protocol


@dataclass(slots=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False
    in_queue: bool = True
    daemon: bool = False


class SimObserver(Protocol):
    """Checked-mode hook (see :class:`repro.analysis.sanitizer.Sanitizer`).

    ``before_fire`` runs after an event is popped and the clock advanced,
    ``after_fire`` after its callback returned. Observers must only
    *observe* — scheduling or mutating from a hook would change results.
    """

    def before_fire(self, event: _ScheduledEvent) -> None: ...
    def after_fire(self, event: _ScheduledEvent) -> None: ...


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation and
    re-arming."""

    __slots__ = ("_sim", "_event")

    def __init__(self, sim: "Simulator", event: _ScheduledEvent):
        self._sim = sim
        self._event = event

    def cancel(self) -> None:
        self._sim._cancel(self._event)

    def reschedule(self, delay: float) -> "EventHandle":
        """Re-arm this event to fire at ``now + delay`` (cancel + re-push).

        When the underlying heap entry has already left the queue (the
        event fired, or was cancelled and lazily popped), the entry is
        reused instead of allocating a new one — so a periodic timer
        that re-arms itself from its own callback never allocates after
        the first :meth:`Simulator.schedule`. Returns ``self`` so the
        caller can keep a single handle alive across re-arms. The
        topology's MRAI release timers, the FSM's session timers and
        the benchmark watchdog all re-arm this way.
        """
        if not isfinite(delay):
            raise ValueError(f"non-finite delay: {delay}")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        sim = self._sim
        event = self._event
        if event.in_queue:
            # Still pending: lazy-cancel the queued entry and push a
            # replacement (mutating a heaped entry would break the heap).
            sim._cancel(event)
            self._event = sim._push(sim.now + delay, event.callback, event.daemon)
        else:
            event.time = sim.now + delay
            event.seq = sim._seq
            sim._seq += 1
            event.cancelled = False
            event.in_queue = True
            if not event.daemon:
                sim._live_real += 1
            heapq.heappush(sim._queue, (event.time, event.seq, event))
        return self

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def active(self) -> bool:
        """True while the event is queued and will fire."""
        return self._event.in_queue and not self._event.cancelled


class Simulator:
    """A virtual clock plus a priority queue of pending callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Heap of ``(time, seq, event)``: the key is compared in C, and
        #: ``seq`` is unique, so the event itself never is.
        self._queue: list[tuple[float, int, _ScheduledEvent]] = []
        self._seq = 0
        self._live_real = 0
        self.events_fired = 0
        #: Optional checked-mode observer; None (the default) costs one
        #: attribute read per fired event.
        self.observer: SimObserver | None = None

    def schedule(
        self, delay: float, callback: Callable[[], None], daemon: bool = False
    ) -> EventHandle:
        """Run *callback* at ``now + delay``.

        A *daemon* event fires normally while real work keeps the clock
        moving, but never keeps the simulation alive by itself: once
        only daemon events remain queued, :meth:`peek_time` reports the
        queue as empty and run loops go idle. Observers (e.g. the
        benchmark watchdog) schedule themselves as daemons so watching
        a run cannot prolong it — without them the safety check that
        keeps a stalled run from spinning forever would itself keep
        every run alive.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback, daemon)

    def schedule_at(
        self, time: float, callback: Callable[[], None], daemon: bool = False
    ) -> EventHandle:
        # NaN passes every ``<`` guard (all its comparisons are False) and
        # would sit in the heap as a key that orders against nothing.
        if not isfinite(time):
            raise ValueError(f"non-finite event time: {time}")
        if time < self.now:
            raise ValueError(f"cannot schedule into the past: {time} < {self.now}")
        return EventHandle(self, self._push(time, callback, daemon))

    def _push(
        self, time: float, callback: Callable[[], None], daemon: bool = False
    ) -> _ScheduledEvent:
        event = _ScheduledEvent(time, self._seq, callback, daemon=daemon)
        self._seq += 1
        if not daemon:
            self._live_real += 1
        heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def _cancel(self, event: _ScheduledEvent) -> None:
        if event.in_queue and not event.cancelled and not event.daemon:
            self._live_real -= 1
        event.cancelled = True

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None when the queue is
        empty or holds only daemon events (which must not keep the
        simulation running on their own)."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)[2].in_queue = False
        if not queue or self._live_real == 0:
            return None
        return queue[0][0]

    def fire_due(self, until: float | None = None) -> int:
        """Advance the clock, firing every event due at or before *until*
        (or just the next event when *until* is None). Returns the number
        fired. Callbacks may schedule further events."""
        fired = 0
        while True:
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            event = heapq.heappop(self._queue)[2]
            event.in_queue = False
            if not event.daemon:
                self._live_real -= 1
            self.now = max(self.now, event.time)
            observer = self.observer
            if observer is not None:
                observer.before_fire(event)
            event.callback()
            self.events_fired += 1
            fired += 1
            if observer is not None:
                observer.after_fire(event)
            if until is None:
                break
        if until is not None:
            self.now = max(self.now, until)
        return fired

    def run(self, until: float | None = None) -> None:
        """Fire events until the queue empties or the clock passes *until*."""
        if until is not None and not isfinite(until):
            raise ValueError(f"non-finite run horizon: {until}")
        while True:
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            self.fire_due(next_time)

    def advance_to(self, time: float) -> None:
        """Move the clock forward without firing anything (the fluid CPU
        loop advances between event timestamps)."""
        # One chained comparison on the per-step path; NaN fails it too.
        if not self.now <= time < inf:
            if not isfinite(time):
                raise ValueError(f"non-finite clock time: {time}")
            raise ValueError(f"cannot rewind clock: {time} < {self.now}")
        self.now = time

    def pending(self) -> int:
        return sum(1 for _time, _seq, event in self._queue if not event.cancelled)
