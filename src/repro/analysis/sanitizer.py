"""The simulation sanitizer: checked mode for live runs.

A :class:`Sanitizer` registers itself as the
:class:`repro.sim.engine.Simulator`'s observer and asserts, on every
fired event,

* **monotonic-clock** — the simulated clock never runs backwards;
* **stable-tie-break** — simultaneous events fire in scheduling
  (sequence) order, the property serial/pooled bit-identity rides on;
* **heap-integrity** — the pending-event heap satisfies the heap
  invariant and every entry's key equals its event's ``(time, seq)``
  (an entry or event mutated in place would silently reorder events);
* **prefix-conservation** — every prefix the speaker received has been
  classified exactly once (accepted / unchanged / policy-filtered /
  loop-dropped / damping-suppressed, see
  :class:`repro.bgp.speaker.PrefixAudit`);

and, after quiescence (:meth:`Sanitizer.check_quiescent`),

* **rib-fib-agreement** — the Loc-RIB's (prefix, next-hop) view equals
  the FIB's, entry for entry.

Checked mode *observes only*: it never schedules events, never touches
counters the cost models read, and a sanitized run produces results
byte-identical to an unsanitized one (tests pin this). Violations raise
:class:`SanitizerError` carrying the recent event trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.bgp.speaker import BgpSpeaker
    from repro.sim.engine import Simulator, _ScheduledEvent
    from repro.systems.router import RouterSystem

#: Events kept in the diagnostic ring buffer attached to errors.
TRACE_DEPTH = 32


def _where(asn: "int | None") -> str:
    return "" if asn is None else f"AS {asn}: "


def _describe_callback(callback: object) -> str:
    name = getattr(callback, "__qualname__", None)
    return name if name is not None else repr(callback)


class SanitizerError(RuntimeError):
    """A runtime invariant failed; carries the offending event trace."""

    def __init__(
        self,
        invariant: str,
        message: str,
        now: float,
        trace: "list[dict[str, object]]",
    ):
        super().__init__(f"[{invariant}] {message} (t={now:g})")
        self.invariant = invariant
        self.message = message
        self.now = now
        self.trace = trace

    def describe(self) -> str:
        lines = [f"sanitizer: {self.invariant} violated at t={self.now:g}", f"  {self.message}"]
        if self.trace:
            lines.append("  recent events (oldest first):")
            for record in self.trace:
                lines.append(
                    f"    t={record['time']:<12g} seq={record['seq']:<8} "
                    f"{record['callback']}"
                )
        return "\n".join(lines)


@dataclass(slots=True)
class SanitizerStats:
    """How much checking a sanitized run actually performed."""

    #: Events fired under the sanitizer; the heap is checked on each.
    events_checked: int = 0
    conservation_checks: int = 0
    quiescent_checks: int = 0

    def to_jsonable(self) -> dict[str, object]:
        return {
            "events_checked": self.events_checked,
            "conservation_checks": self.conservation_checks,
            "quiescent_checks": self.quiescent_checks,
        }


class Sanitizer:
    """Wraps a live simulator (and optionally a router) in checked mode.

    The heap-invariant scan is O(queue length) and runs after every
    event: ``bgpbench scenario --sanitize`` and the sanitized topology
    and grid cells are small by design.
    """

    def __init__(self) -> None:
        self.sim: "Simulator | None" = None
        self.router: "RouterSystem | None" = None
        self.stats = SanitizerStats()
        self._trace: "deque[dict[str, object]]" = deque(maxlen=TRACE_DEPTH)
        self._last_time = float("-inf")
        self._last_seq = -1
        self._last_now = float("-inf")

    # -- attachment --------------------------------------------------------

    def attach(self, router: "RouterSystem") -> "Sanitizer":
        """Observe *router*'s simulator, speaker audit, and FIB."""
        self.router = router
        return self.attach_simulator(router.world.sim)

    def attach_simulator(self, sim: "Simulator") -> "Sanitizer":
        if sim.observer is not None and sim.observer is not self:
            raise ValueError("simulator already has an observer attached")
        self.sim = sim
        sim.observer = self
        return self

    def detach(self) -> None:
        if self.sim is not None and self.sim.observer is self:
            self.sim.observer = None
        self.sim = None

    # -- Simulator observer protocol ---------------------------------------

    def before_fire(self, event: "_ScheduledEvent") -> None:
        """Called by the simulator after the pop, before the callback."""
        self._trace.append(
            {
                "time": event.time,
                "seq": event.seq,
                "callback": _describe_callback(event.callback),
            }
        )
        self.stats.events_checked += 1
        if event.time < self._last_time:
            self._violation(
                "monotonic-clock",
                f"event at t={event.time:g} fired after an event at "
                f"t={self._last_time:g}; the virtual clock ran backwards",
            )
        if event.time == self._last_time and event.seq <= self._last_seq:
            self._violation(
                "stable-tie-break",
                f"simultaneous events fired out of scheduling order: "
                f"seq {event.seq} after seq {self._last_seq} at t={event.time:g}",
            )
        self._check_heap()
        self._last_time = event.time
        self._last_seq = event.seq

    def after_fire(self, event: "_ScheduledEvent") -> None:
        """Called by the simulator after the callback returned."""
        assert self.sim is not None
        if self.sim.now < self._last_now:
            self._violation(
                "monotonic-clock",
                f"Simulator.now rewound from {self._last_now:g} to "
                f"{self.sim.now:g} during an event callback",
            )
        self._last_now = self.sim.now
        if self.router is not None:
            self.stats.conservation_checks += 1
            self._check_conservation(self.router.speaker)

    # -- invariant checks ---------------------------------------------------

    def _check_heap(self) -> None:
        assert self.sim is not None
        queue = self.sim._queue
        for index, (time, seq, event) in enumerate(queue):
            if (time, seq) != (event.time, event.seq):
                self._violation(
                    "heap-integrity",
                    f"pending-event heap entry {index} is keyed "
                    f"(t={time:g}, seq={seq}) but its event says "
                    f"(t={event.time:g}, seq={event.seq}) — a queued event "
                    f"was mutated in place",
                )
            # (the root stands in as its own parent)
            parent_time, parent_seq, _ = queue[max(index - 1, 0) >> 1]
            if (time, seq) < (parent_time, parent_seq):
                self._violation(
                    "heap-integrity",
                    f"pending-event heap violated at index {index}: "
                    f"(t={time:g}, seq={seq}) sorts before its parent "
                    f"(t={parent_time:g}, seq={parent_seq}) — an entry was "
                    f"replaced in place",
                )

    def _check_conservation(self, speaker: "BgpSpeaker", asn: "int | None" = None) -> None:
        """Prefix conservation on one speaker's audit ledger; on a
        topology the message names the speaker's *asn*."""
        audit = speaker.audit
        if not audit.balanced():
            self._violation(
                "prefix-conservation",
                f"{_where(asn)}received prefixes not conserved: "
                f"{audit.describe_imbalance()}",
            )

    def check_quiescent(self) -> None:
        """Invariants that only hold once the simulation has gone idle:
        RIB/FIB agreement plus a final conservation check."""
        self.stats.quiescent_checks += 1
        if self.router is None:
            return
        self.stats.conservation_checks += 1
        self._check_conservation(self.router.speaker)
        self._check_rib_fib(self.router)

    def _check_rib_fib(self, router: "RouterSystem") -> None:
        """RIB/FIB agreement on one router, naming the first prefix of
        each kind of difference."""
        rib_view = router.speaker.loc_rib.fib_view()
        fib_view = router.fib.routes()
        if rib_view != fib_view:
            rib_map = dict(rib_view)
            fib_map = dict(fib_view)
            only_rib = sorted(set(rib_map) - set(fib_map))
            only_fib = sorted(set(fib_map) - set(rib_map))
            differing = sorted(
                prefix
                for prefix in set(rib_map) & set(fib_map)
                if rib_map[prefix] != fib_map[prefix]
            )
            details = []
            if only_rib:
                details.append(f"{len(only_rib)} prefixes in Loc-RIB only (first: {only_rib[0]})")
            if only_fib:
                details.append(f"{len(only_fib)} prefixes in FIB only (first: {only_fib[0]})")
            if differing:
                details.append(
                    f"{len(differing)} next-hop mismatches (first: {differing[0]})"
                )
            self._violation(
                "rib-fib-agreement",
                "Loc-RIB and FIB disagree after quiescence: "
                + "; ".join(details),
            )

    def _violation(self, invariant: str, message: str) -> None:
        now = self.sim.now if self.sim is not None else 0.0
        raise SanitizerError(invariant, message, now, list(self._trace))
