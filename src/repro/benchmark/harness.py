"""The two-speaker / three-phase benchmark harness (paper Fig. 1).

``run_scenario`` wires a router under test to Speaker 1 and (for the
incremental scenarios) Speaker 2, runs the phases, and computes
transactions per second over the measured phase only — "time spent
setting up the scenario in Phase 1 and 2 is not considered" (§III.D).

Packet delivery uses a sliding in-flight window to model TCP
backpressure: the speakers never run more than ``window`` packets ahead
of the router's processing, as a real TCP receive window enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat, zip_longest
from typing import Callable, Iterator

from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.benchmark.scenarios import Scenario, get_scenario
from repro.net.addr import IPv4Address
from repro.systems.router import RouterSystem
from repro.workload.tablegen import SyntheticTable, generate_table
from repro.workload.updates import UpdateStreamBuilder

SPEAKER1 = "speaker1"
SPEAKER2 = "speaker2"
SPEAKER1_ASN = 65101
SPEAKER2_ASN = 65102
SPEAKER1_ADDR = IPv4Address.parse("10.255.1.1")
SPEAKER2_ADDR = IPv4Address.parse("10.255.2.1")

#: Default in-flight packet window (TCP backpressure model).
DEFAULT_WINDOW = 8

#: Large-packet size used for *unmeasured* setup phases regardless of
#: the scenario's own packet size — setup time is excluded from the
#: metric, so the fastest loading is used, as a real harness would.
SETUP_PACKING = 500


@dataclass(slots=True)
class StallDiagnostics:
    """Why a phase stopped making progress, captured at detection time."""

    reason: str
    virtual_time: float
    inflight: int
    packets_sent: int
    packets_total: int
    packets_completed: int
    events_fired: int

    def describe(self) -> str:
        return (
            f"{self.reason} at t={self.virtual_time:.3f}s: "
            f"{self.packets_sent}/{self.packets_total} packets fed, "
            f"{self.inflight} in flight, "
            f"{self.packets_completed} completed, "
            f"{self.events_fired} events fired"
        )

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "reason": self.reason,
            "virtual_time": self.virtual_time,
            "inflight": self.inflight,
            "packets_sent": self.packets_sent,
            "packets_total": self.packets_total,
            "packets_completed": self.packets_completed,
            "events_fired": self.events_fired,
        }


class StallError(RuntimeError):
    """A stream made no progress; carries the :class:`StallDiagnostics`."""

    def __init__(self, diagnostics: StallDiagnostics):
        super().__init__(diagnostics.describe())
        self.diagnostics = diagnostics


class Watchdog:
    """A virtual-time stall detector for windowed packet streams.

    Every *interval* virtual seconds it compares the router's completed
    packet count against the previous check. *patience* consecutive
    checks without a completion while simulator events kept firing is a
    livelock — something (a retransmission storm, a runaway timer) is
    spinning the event loop without finishing work — and the watchdog
    raises :class:`StallError` out of the run loop instead of letting
    ``run_until_idle`` spin forever. If nothing fired either, the world
    is quiescing or grinding a long CPU job; the watchdog disarms and
    leaves the deadlock check at end of stream to judge the outcome.

    The check is a *daemon* event (:meth:`Simulator.schedule`): it
    fires while real work keeps the clock moving but never keeps the
    world alive by itself, so an armed watchdog adds zero virtual time
    to a stream that completes. One event handle is reused across
    checks (``EventHandle.reschedule``).

    Safety code: no calibrated run livelocks, but without the watchdog
    one that did would keep :func:`run_scenario` spinning forever
    instead of failing with a diagnosis.
    """

    def __init__(self, router: RouterSystem, interval: float = 60.0, patience: int = 2):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1: {patience}")
        self.router = router
        self.interval = interval
        self.patience = patience
        self._handle = None
        self._armed = False
        self._own_fires = 0
        self._strikes = 0
        self._last_completed = 0
        self._last_events = 0
        self._progress: Callable[[], int] | None = None

    def arm(self, progress: Callable[[], int] | None = None) -> None:
        """Start watching. *progress* overrides the progress metric
        (default: the router's completed-packet count)."""
        self._progress = progress
        self._armed = True
        self._strikes = 0
        self._last_completed = self._read_progress()
        self._last_events = self._events_elsewhere()
        sim = self.router.world.sim
        if self._handle is None:
            self._handle = sim.schedule(self.interval, self._check, daemon=True)
        else:
            self._handle.reschedule(self.interval)

    def disarm(self) -> None:
        self._armed = False
        if self._handle is not None:
            self._handle.cancel()

    def _read_progress(self) -> int:
        if self._progress is not None:
            return self._progress()
        return self.router.packets_completed

    def _events_elsewhere(self) -> int:
        """Events fired by everything except this watchdog."""
        return self.router.world.sim.events_fired - self._own_fires

    def _check(self) -> None:
        self._own_fires += 1
        if not self._armed:
            return
        completed = self._read_progress()
        events = self._events_elsewhere()
        if completed != self._last_completed:
            self._strikes = 0
        else:
            self._strikes += 1
            if self._strikes >= self.patience:
                if events != self._last_events:
                    raise StallError(self._diagnose(
                        "no packet completed despite live event traffic "
                        f"for {self._strikes * self.interval:g} virtual seconds"
                    ))
                # Nothing fired either: the world is about to go idle
                # (deadlock — caught after the run returns) or is stuck
                # in a long fluid-CPU grind. Stop rescheduling so the
                # run loop can actually return.
                self.disarm()
                return
        self._last_completed = completed
        self._last_events = events
        assert self._handle is not None
        self._handle.reschedule(self.interval)

    def _diagnose(self, reason: str, inflight: int = -1, sent: int = -1, total: int = -1) -> StallDiagnostics:
        return StallDiagnostics(
            reason=reason,
            virtual_time=self.router.world.sim.now,
            inflight=inflight,
            packets_sent=sent,
            packets_total=total,
            packets_completed=self._read_progress(),
            events_fired=self._events_elsewhere(),
        )


@dataclass(slots=True)
class PhaseTrace:
    """Timing of one benchmark phase."""

    phase: int
    start: float
    end: float
    transactions: int
    completed: bool = True
    stall: StallDiagnostics | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "transactions": self.transactions,
            "completed": self.completed,
            "stall": None if self.stall is None else self.stall.to_jsonable(),
        }


@dataclass(slots=True)
class ScenarioResult:
    """Everything measured in one scenario run."""

    scenario: Scenario
    platform: str
    table_size: int
    cross_traffic_mbps: float
    transactions: int
    duration: float
    phases: list[PhaseTrace] = field(default_factory=list)
    cpu_series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    forwarding_series: list[tuple[float, float]] = field(default_factory=list)
    fib_size_after: int = 0

    @property
    def completed(self) -> bool:
        """False when any phase was cut short by a detected stall."""
        return all(phase.completed for phase in self.phases)

    @property
    def stalled_phase(self) -> PhaseTrace | None:
        for phase in self.phases:
            if not phase.completed:
                return phase
        return None

    @property
    def transactions_per_second(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.transactions / self.duration

    def to_jsonable(self) -> "dict[str, object]":
        """Plain dicts/lists only — safe to ``json.dumps`` and to ship
        across process boundaries (the grid executor stores exactly
        this). Monitor series are large and excluded.
        """
        return {
            "scenario": self.scenario.number,
            "platform": self.platform,
            "table_size": self.table_size,
            "cross_traffic_mbps": self.cross_traffic_mbps,
            "transactions": self.transactions,
            "duration": self.duration,
            "transactions_per_second": self.transactions_per_second,
            "fib_size_after": self.fib_size_after,
            "completed": self.completed,
            "phases": [phase.to_jsonable() for phase in self.phases],
        }


def stream_packets(
    router: RouterSystem,
    peer_id: str,
    packets: "list[bytes]",
    window: int,
    deliver: "Callable[[bytes], None] | None" = None,
    watchdog: Watchdog | None = None,
) -> None:
    """Deliver *packets* to *peer_id* with at most *window* in flight
    (TCP backpressure), then run the simulation dry. Public: workload
    examples use this to drive custom packet streams.

    *deliver* overrides per-packet delivery while the window still
    tracks the router's completion callbacks. No benchmark passes it:
    it is the seam through which a test substitutes a lossy link to
    exercise the stall checks below. *watchdog* arms a virtual-time
    stall detector for the duration of the stream; with or without
    one, a stream that goes idle with packets unaccounted for (the
    window can never refill) raises :class:`StallError` instead of
    returning as if it had finished — safety code, so a lost packet
    fails the run rather than hanging it.

    The in-flight accounting is exception-safe: a delivery that raises
    mid-feed rolls its window slot back, so the count stays truthful
    for whoever catches the error, and the router's ``on_packet_done``
    hook is always restored.
    """
    send = deliver if deliver is not None else (
        lambda data: router.deliver(peer_id, data)
    )
    _stream_window(router, iter(packets), len(packets), window, send, watchdog)


def _stream_window(
    router: RouterSystem,
    items: "Iterator",
    total: int,
    window: int,
    send: "Callable",
    watchdog: Watchdog | None = None,
) -> None:
    """The windowed feeder behind :func:`stream_packets` and
    :func:`stream_interleaved`: ``send`` each of the *total* *items* with
    at most *window* in flight, refilling from the router's completion
    callback, run the simulation dry, and raise :class:`StallError` if
    any item is unaccounted for."""
    state = {"inflight": 0, "sent": 0}

    def feed() -> None:
        while state["inflight"] < window:
            item = next(items, None)
            if item is None:
                return
            state["inflight"] += 1
            state["sent"] += 1
            try:
                send(item)
            except BaseException:
                state["inflight"] -= 1
                state["sent"] -= 1
                raise

    def on_done() -> None:
        state["inflight"] -= 1
        feed()

    previous = router.on_packet_done
    router.on_packet_done = on_done
    if watchdog is not None:
        watchdog.arm()
    try:
        feed()
        router.run_until_idle()
    finally:
        if watchdog is not None:
            watchdog.disarm()
        router.on_packet_done = previous

    if state["inflight"] > 0 or state["sent"] < total:
        raise StallError(StallDiagnostics(
            reason="delivery window deadlocked (packets lost in flight)",
            virtual_time=router.world.sim.now,
            inflight=state["inflight"],
            packets_sent=state["sent"],
            packets_total=total,
            packets_completed=router.packets_completed,
            events_fired=router.world.sim.events_fired,
        ))


def run_scenario(
    router: RouterSystem,
    scenario: "int | Scenario",
    table_size: int = 5000,
    cross_traffic_mbps: float = 0.0,
    window: int = DEFAULT_WINDOW,
    seed: int = 42,
    table: SyntheticTable | None = None,
    settle_after: float = 0.0,
    deliver: "dict[str, Callable[[bytes], None]] | None" = None,
    watchdog: Watchdog | None = None,
) -> ScenarioResult:
    """Run one benchmark scenario against a fresh router under test.

    The router must be newly built (empty RIBs, as Fig. 1 assumes).
    *settle_after* keeps the simulation running for that many extra
    seconds after the measured phase so forwarding-rate monitors record
    the recovery tail (Figure 6(c)).

    *deliver* optionally maps a speaker id to a delivery override for
    that speaker's stream — the test seam for a lossy link, passed by
    no benchmark. *watchdog* (default: a fresh
    :class:`Watchdog`) guards every streaming phase; a phase that
    stalls — livelocked event traffic or a deadlocked window — is
    recorded as a failed :class:`PhaseTrace` carrying the
    :class:`StallDiagnostics`, the remaining phases are skipped, and
    the result comes back with ``completed=False`` instead of the
    harness hanging.
    """
    spec = get_scenario(scenario)
    if table is None:
        table = generate_table(table_size, seed)
    if len(router.speaker.loc_rib):
        raise ValueError("router under test must start with empty RIBs")
    deliver = deliver or {}
    if watchdog is None:
        watchdog = Watchdog(router)

    speaker1 = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
    speaker2 = UpdateStreamBuilder(SPEAKER2_ASN, SPEAKER2_ADDR)
    phases: list[PhaseTrace] = []

    def run_stream_phase(phase: int, sender: str, packets: "list[bytes]") -> PhaseTrace:
        router.reset_counters()
        start = router.now
        telemetry = router.telemetry
        span = None if telemetry is None else telemetry.phase_begin(phase)
        try:
            stream_packets(
                router, sender, packets, window,
                deliver=deliver.get(sender), watchdog=watchdog,
            )
        except StallError as error:
            trace = PhaseTrace(
                phase, start, router.now, router.transactions_completed,
                completed=False, stall=error.diagnostics,
            )
            if span is not None:
                telemetry.phase_end(span, trace.transactions, False)
            return trace
        trace = PhaseTrace(
            phase, start, router.last_completion, router.transactions_completed
        )
        if span is not None:
            telemetry.phase_end(span, trace.transactions, True)
        return trace

    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
    router.set_cross_traffic(cross_traffic_mbps)
    router.export_packing = spec.prefixes_per_update

    # ---- Phase 1: Speaker 1 loads the table ------------------------------
    phase1_packing = (
        spec.prefixes_per_update if spec.measured_phase == 1 else SETUP_PACKING
    )
    phases.append(
        run_stream_phase(1, SPEAKER1, speaker1.announcements(table, phase1_packing))
    )

    # ---- Phase 2: initial transfer to Speaker 2 (scenarios 5-8) -----------
    if spec.uses_second_speaker and phases[-1].completed:
        router.add_peer(
            PeerConfig(SPEAKER2, SPEAKER2_ASN, SPEAKER2_ADDR, ACCEPT_ALL, ACCEPT_ALL)
        )
        router.handshake(SPEAKER2, SPEAKER2_ASN, SPEAKER2_ADDR)
        router.reset_counters()
        start = router.now
        telemetry = router.telemetry
        span = None if telemetry is None else telemetry.phase_begin(2)
        router.schedule_initial_advertisement(SPEAKER2)
        router.run_until_idle()
        if span is not None:
            telemetry.phase_end(span, 0, True)
        phases.append(PhaseTrace(2, start, router.now, 0))

    # ---- Phase 3 / measurement -------------------------------------------------
    if spec.measured_phase == 3 and phases[-1].completed:
        if spec.update_type == "WITHDRAW":
            packets = speaker1.withdrawals(table, spec.prefixes_per_update)
            sender = SPEAKER1
        else:
            packets = speaker2.announcements(
                table, spec.prefixes_per_update, extra_hops=spec.path_extra_hops
            )
            sender = SPEAKER2
        phases.append(run_stream_phase(3, sender, packets))

    measured = phases[-1]
    if settle_after > 0 and measured.completed:
        router.run_until_idle(extra=settle_after)

    return ScenarioResult(
        scenario=spec,
        platform=router.spec.name,
        table_size=len(table),
        cross_traffic_mbps=router.cross_traffic_mbps,
        transactions=measured.transactions,
        duration=measured.duration,
        phases=phases,
        cpu_series=router.cpu_monitor.table(),
        forwarding_series=router.forwarding_monitor.series(),
        fib_size_after=len(router.fib),
    )


def stream_interleaved(
    router: RouterSystem,
    feeds: "list[tuple[str, list[bytes]]]",
    window: int = DEFAULT_WINDOW,
) -> None:
    """Deliver several peers' packet streams concurrently, round-robin,
    sharing one in-flight window — a router with many busy neighbours."""
    streams = [zip(repeat(peer_id), packets) for peer_id, packets in feeds]
    items = (item for row in zip_longest(*streams) for item in row if item is not None)
    total = sum(len(packets) for _peer_id, packets in feeds)
    _stream_window(router, items, total, window, lambda item: router.deliver(*item))


@dataclass(slots=True)
class MultiPeerResult:
    """Outcome of a multi-neighbour table load."""

    peer_count: int
    table_size: int
    transactions: int
    duration: float
    fib_size_after: int

    @property
    def transactions_per_second(self) -> float:
        return self.transactions / self.duration if self.duration > 0 else 0.0

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "peer_count": self.peer_count,
            "table_size": self.table_size,
            "transactions": self.transactions,
            "duration": self.duration,
            "transactions_per_second": self.transactions_per_second,
            "fib_size_after": self.fib_size_after,
        }


def run_multipeer_startup(
    router: RouterSystem,
    peer_count: int = 4,
    table_size: int = 2000,
    prefixes_per_update: int = 1,
    window: int = DEFAULT_WINDOW,
    seed: int = 42,
    disjoint: bool = True,
) -> MultiPeerResult:
    """A start-up load arriving over *peer_count* concurrent sessions.

    With ``disjoint=True`` each peer announces its own shard of the
    table (the realistic cold-boot case — total work equals the
    single-peer scenario 1). With ``disjoint=False`` every peer
    announces the *whole* table, so each prefix triggers a decision
    among ``peer_count`` candidates.
    """
    if peer_count < 1:
        raise ValueError("need at least one peer")
    table = generate_table(table_size, seed)
    feeds = []
    for index in range(peer_count):
        asn = SPEAKER1_ASN + index
        address = IPv4Address(SPEAKER1_ADDR.value + index * 256)
        peer_id = f"peer{index}"
        router.add_peer(PeerConfig(peer_id, asn, address, ACCEPT_ALL, ACCEPT_ALL))
        router.handshake(peer_id, asn, address)
        builder = UpdateStreamBuilder(asn, address)
        if disjoint:
            shard = table.entries[index::peer_count]
        else:
            shard = table.entries
        feeds.append((peer_id, builder.announcements(shard, prefixes_per_update)))

    router.export_packing = prefixes_per_update
    router.reset_counters()
    start = router.now
    stream_interleaved(router, feeds, window)
    return MultiPeerResult(
        peer_count=peer_count,
        table_size=table_size,
        transactions=router.transactions_completed,
        duration=router.last_completion - start,
        fib_size_after=len(router.fib),
    )
