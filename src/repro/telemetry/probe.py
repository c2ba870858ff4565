"""The run-time telemetry facade: one object wires every layer.

``Telemetry().attach(router)`` binds the tracer clock to the router's
virtual clock and plants the two instrumentation hooks:

* the speaker's ``probe`` (per-UPDATE message, per-prefix decision and
  FIB-install events, see :mod:`repro.bgp.speaker`);
* the router's ``telemetry`` attribute, which the platform models and
  the benchmark harness consult for packet and phase spans.

Everything recorded is a span stamped with virtual time. Attaching a
``Telemetry`` never schedules an event and never feeds a value back
into the simulation, so an instrumented run is **byte-identical** to a
plain run — the golden regression gate pins this (``bgpbench regress
--telemetry``). The simulator's observer slot is left to the sanitizer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.spans import Span, Tracer

if TYPE_CHECKING:
    from repro.systems.router import RouterSystem


class Telemetry:
    """The span trace of one instrumented run (see docs/TELEMETRY.md)."""

    def __init__(self):
        self.tracer = Tracer()
        self.router: "RouterSystem | None" = None
        self._phase: "Span | None" = None
        self._updates: list[Span] = []

    # -- attachment --------------------------------------------------------

    def attach(self, router: "RouterSystem") -> "Telemetry":
        """Instrument *router* (idempotence is not supported: one
        Telemetry per run)."""
        if self.router is not None:
            raise ValueError("telemetry already attached")
        self.router = router
        sim = router.world.sim
        self.tracer.clock = lambda: sim.now
        router.telemetry = self
        router.speaker.probe = self
        return self

    def detach(self) -> None:
        """Unhook every instrumentation point and close open spans."""
        router = self.router
        if router is None:
            return
        if router.speaker.probe is self:
            router.speaker.probe = None
        if router.telemetry is self:
            router.telemetry = None
        self.tracer.finish()
        self.router = None

    # -- harness hooks: phases ---------------------------------------------

    def phase_begin(self, number: int) -> Span:
        span = self.tracer.open(f"phase{number}", "phase", number=number)
        self._phase = span
        return span

    def phase_end(self, span: Span, transactions: int, completed: bool) -> None:
        self.tracer.close(span, transactions=transactions, completed=completed)
        if self._phase is span:
            self._phase = None

    # -- router hooks: packets ---------------------------------------------

    def packet_begin(self, peer_id: str, start: "float | None" = None) -> Span:
        """Open a packet span (parent: the current phase) and make it the
        context for the synchronous receive path."""
        span = self.tracer.open(
            "packet", "packet", parent=self._phase, start=start, peer=peer_id
        )
        self.tracer.push(span)
        return span

    def packet_parsed(self, span: Span) -> None:
        """The synchronous (functional) part of processing is over; the
        span stays open until the platform model completes the packet."""
        self.tracer.pop(span)

    def packet_end(self, span: Span, transactions: int) -> None:
        self.tracer.close(span, transactions=transactions)

    # -- speaker probe: messages, decisions, FIB ---------------------------

    def update_begin(self, peer_id: str, withdrawn: int, announced: int) -> None:
        span = self.tracer.open(
            "update", "message",
            peer=peer_id, withdrawn=withdrawn, announced=announced,
        )
        self.tracer.push(span)
        self._updates.append(span)

    def decision(self, prefix: object, outcome: str) -> None:
        self.tracer.instant("decision", "decision", prefix=str(prefix), outcome=outcome)

    def fib_op(self, op: str, prefix: object) -> None:
        self.tracer.instant("fib", "fib", op=op, prefix=str(prefix))

    def update_end(self) -> None:
        span = self._updates.pop()
        self.tracer.pop(span)
        self.tracer.close(span)
