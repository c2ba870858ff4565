"""A complete BGP speaker.

:class:`BgpSpeaker` ties the codec, FSM, RIBs, policy engine, and
decision process together into the processing pipeline the paper
benchmarks:

    receive bytes → frame → decode UPDATE → import policy →
    Adj-RIB-In → decision process → Loc-RIB → FIB delta →
    export policy → Adj-RIB-Out → pack UPDATEs for other peers

Every stage increments a :class:`WorkLog`, the operation ledger the
simulated router systems convert into CPU time. The speaker itself is
functionally real — it decodes actual RFC 4271 bytes and maintains real
RIBs — while the *performance* of a given platform is modeled by
:mod:`repro.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Iterator, Protocol

from repro.bgp.attributes import PathAttributes, WellKnownCommunity, intern_attributes
from repro.bgp.damping import DampingConfig, RouteDamper
from repro.bgp.decision import Candidate, DecisionProcess, PeerInfo
from repro.bgp.errors import BgpError
from repro.bgp.mrai import MraiLimiter
from repro.bgp.fsm import Event, ReconnectBackoff, SessionFsm, State
from repro.bgp.messages import (
    HEADER_LEN,
    MAX_MESSAGE_LEN,
    BgpMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_message,
)
from repro.bgp.policy import ACCEPT_ALL, Policy
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibRoute, RouteChange
from repro.net.addr import IPv4Address, Prefix


class FibSink(Protocol):
    """Where Loc-RIB changes are pushed — the forwarding information base."""

    def add_route(self, prefix: Prefix, next_hop: IPv4Address) -> None: ...
    def replace_route(self, prefix: Prefix, next_hop: IPv4Address) -> None: ...
    def delete_route(self, prefix: Prefix) -> None: ...


class NullFib:
    """A FIB sink that discards everything (control-plane-only tests)."""

    def add_route(self, prefix: Prefix, next_hop: IPv4Address) -> None:
        pass

    def replace_route(self, prefix: Prefix, next_hop: IPv4Address) -> None:
        pass

    def delete_route(self, prefix: Prefix) -> None:
        pass


@dataclass(slots=True)
class WorkLog:
    """Operation counts for one stretch of processing.

    The simulated platforms charge CPU time per field (see
    :mod:`repro.systems.costs`); the benchmark's transactions-per-second
    metric divides ``transactions`` by the virtual time consumed.
    """

    packets_received: int = 0
    bytes_received: int = 0
    messages_decoded: int = 0
    updates_processed: int = 0
    prefixes_announced: int = 0
    prefixes_withdrawn: int = 0
    policy_evaluations: int = 0
    decisions: int = 0
    loc_rib_adds: int = 0
    loc_rib_replaces: int = 0
    loc_rib_removes: int = 0
    loc_rib_unchanged: int = 0
    fib_adds: int = 0
    fib_replaces: int = 0
    fib_deletes: int = 0
    updates_sent: int = 0
    prefixes_sent: int = 0
    bytes_sent: int = 0

    @property
    def transactions(self) -> int:
        """Prefix-level route changes processed — the paper's metric unit."""
        return self.prefixes_announced + self.prefixes_withdrawn

    @property
    def fib_changes(self) -> int:
        return self.fib_adds + self.fib_replaces + self.fib_deletes

    def counts(self) -> tuple[int, ...]:
        """Every counter, in field order (``WorkLog(*log.counts())``
        rebuilds the log)."""
        return _work_counts(self)

    def add(self, other: "WorkLog") -> None:
        for name, mine, theirs in zip(_WORK_FIELDS, _work_counts(self), _work_counts(other)):
            setattr(self, name, mine + theirs)

    def snapshot(self) -> "WorkLog":
        return WorkLog(*_work_counts(self))


# The per-packet path snapshots and subtracts a WorkLog for every packet:
# one C-level getter over the field tuple instead of a getattr loop.
_WORK_FIELDS = tuple(WorkLog.__dataclass_fields__)
_work_counts = attrgetter(*_WORK_FIELDS)


@dataclass(slots=True)
class PrefixAudit:
    """Conservation ledger: every received prefix classified exactly once.

    The simulation sanitizer (:mod:`repro.analysis.sanitizer`) asserts
    after every event that what came in equals what was accounted for —
    announcements land in exactly one of accepted / unchanged /
    policy-filtered / loop-dropped / damping-suppressed, withdrawals in
    applied / absent. The counters are monotonic and never reset, so
    the balance must hold at any instant, not just at phase ends.
    """

    announced: int = 0
    withdrawn: int = 0
    accepted: int = 0
    unchanged: int = 0
    policy_filtered: int = 0
    loop_dropped: int = 0
    damping_suppressed: int = 0
    withdrawals_applied: int = 0
    withdrawals_absent: int = 0

    @property
    def classified_announcements(self) -> int:
        return (
            self.accepted
            + self.unchanged
            + self.policy_filtered
            + self.loop_dropped
            + self.damping_suppressed
        )

    @property
    def classified_withdrawals(self) -> int:
        return self.withdrawals_applied + self.withdrawals_absent

    def balanced(self) -> bool:
        return (
            self.announced == self.classified_announcements
            and self.withdrawn == self.classified_withdrawals
        )

    def describe_imbalance(self) -> str:
        return (
            f"announced={self.announced} vs classified="
            f"{self.classified_announcements} (accepted={self.accepted}, "
            f"unchanged={self.unchanged}, policy={self.policy_filtered}, "
            f"loop={self.loop_dropped}, damping={self.damping_suppressed}); "
            f"withdrawn={self.withdrawn} vs classified="
            f"{self.classified_withdrawals} (applied="
            f"{self.withdrawals_applied}, absent={self.withdrawals_absent})"
        )


@dataclass(frozen=True, slots=True)
class SpeakerConfig:
    """Local configuration of a BGP speaker."""

    asn: int
    bgp_identifier: IPv4Address
    local_address: IPv4Address
    hold_time: float = 90.0
    compare_med_always: bool = False
    #: When the best route switches to one learned from a peer that
    #: previously received our advertisement, stage an explicit withdraw
    #: toward that peer (and toward iBGP peers skipped by split horizon)
    #: instead of leaving the stale advertisement dangling. Required for
    #: multi-router topologies to quiesce to zero routes after an origin
    #: withdraw; off by default because the two-speaker benchmark is
    #: calibrated against the paper without this extra update traffic.
    split_horizon_withdraw: bool = False


@dataclass(frozen=True, slots=True)
class PeerConfig:
    """Configuration of one neighbour.

    ``damping`` enables RFC 2439 route-flap damping on routes learned
    from this neighbour; ``mrai_interval`` enables RFC 4271 §9.2.1.1
    rate-limiting of advertisements *to* this neighbour (0 = off, the
    benchmark default — the paper's scenarios measure raw processing).
    """

    peer_id: str
    asn: int
    address: IPv4Address
    import_policy: Policy = ACCEPT_ALL
    export_policy: Policy = ACCEPT_ALL
    passive: bool = False
    damping: DampingConfig | None = None
    mrai_interval: float = 0.0
    backoff: ReconnectBackoff | None = None


#: Distinct export-policy outputs one speaker remembers the eBGP
#: rewrite of.
_EBGP_REWRITE_CAPACITY = 1 << 12


class _Framer:
    """Reassemble framed BGP messages from a TCP-like byte stream."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def push(self, data: bytes) -> Iterator[tuple[BgpMessage, int]]:
        """Append *data*; yield every complete (message, wire_length)."""
        if not self._buffer:
            # One packet, one whole message (how every harness here
            # sends): decode the packet itself — no buffer round trip,
            # and a bytes packet is the message memo's key as it stands.
            size = len(data)
            if (
                HEADER_LEN <= size <= MAX_MESSAGE_LEN
                and int.from_bytes(data[16:18], "big") == size
            ):
                yield decode_message(bytes(data)), size
                return
        self._buffer += data
        while len(self._buffer) >= HEADER_LEN:
            length = int.from_bytes(self._buffer[16:18], "big")
            if length < HEADER_LEN or length > MAX_MESSAGE_LEN:
                # decode_message will raise the precise header error
                yield decode_message(bytes(self._buffer[:HEADER_LEN])), HEADER_LEN
                return
            if len(self._buffer) < length:
                return
            raw = bytes(self._buffer[:length])
            del self._buffer[:length]
            yield decode_message(raw), length

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


class Peer:
    """Per-neighbour session state: FSM, Adj-RIBs, framer, transport."""

    def __init__(self, speaker: "BgpSpeaker", config: PeerConfig, order: int):
        self.speaker = speaker
        self.config = config
        #: Position in the speaker's ``peers`` dict (insertion order).
        self.order = order
        self.adj_rib_in = AdjRibIn(config.peer_id)
        self.adj_rib_out = AdjRibOut(config.peer_id)
        self.damper = RouteDamper(config.damping) if config.damping else None
        self.mrai = MraiLimiter(config.mrai_interval) if config.mrai_interval else None
        self.framer = _Framer()
        self.send_callback: Callable[[bytes], None] | None = None
        #: :meth:`info`, built once per session: ``fsm.peer_open`` only
        #: changes while a session is coming up, which drops it.
        self._info: PeerInfo | None = None
        self.fsm = SessionFsm(
            local_asn=speaker.config.asn,
            local_identifier=speaker.config.bgp_identifier,
            actions=_PeerActions(self),
            hold_time=speaker.config.hold_time,
            expected_peer_asn=config.asn,
            backoff=config.backoff,
        )

    @property
    def is_ebgp(self) -> bool:
        return self.config.asn != self.speaker.config.asn

    @property
    def established(self) -> bool:
        return self.fsm.state is State.ESTABLISHED

    def info(self) -> PeerInfo:
        info = self._info
        if info is None:
            identifier = (
                self.fsm.peer_open.bgp_identifier
                if self.fsm.peer_open is not None
                else self.config.address
            )
            info = self._info = PeerInfo(
                peer_id=self.config.peer_id,
                asn=self.config.asn,
                address=self.config.address,
                bgp_identifier=identifier,
                is_ebgp=self.is_ebgp,
            )
        return info


_peer_order = attrgetter("order")


class _PeerActions:
    """Adapts FSM side effects onto the owning speaker."""

    def __init__(self, peer: Peer):
        self.peer = peer

    def send(self, message: BgpMessage) -> None:
        self.peer.speaker._send_message(self.peer, message)

    def start_connect(self) -> None:
        # In-memory transport: connection is confirmed by the harness
        # calling transport_connected(); nothing to initiate here.
        pass

    def drop_connection(self) -> None:
        self.peer.framer = _Framer()

    def deliver_update(self, update: UpdateMessage) -> None:
        self.peer.speaker._process_update(self.peer, update)

    def session_up(self) -> None:
        self.peer.speaker._on_session_up(self.peer)

    def session_down(self, reason: str) -> None:
        self.peer.speaker._on_session_down(self.peer, reason)


class BgpSpeaker:
    """A BGP-4 speaker with any number of peers and a pluggable FIB."""

    #: Conventional cap on prefixes packed into one large UPDATE; the
    #: paper's "large packet" scenarios use exactly 500.
    LARGE_UPDATE_PREFIXES = 500

    def __init__(self, config: SpeakerConfig, fib: FibSink | None = None):
        self.config = config
        self.fib: FibSink = fib if fib is not None else NullFib()
        self.loc_rib = LocRib()
        self.peers: dict[str, Peer] = {}
        self.work = WorkLog()
        #: Monotonic conservation ledger the sanitizer audits.
        self.audit = PrefixAudit()
        self.decision = DecisionProcess(config.compare_med_always)
        self._local_routes: dict[Prefix, PathAttributes] = {}
        #: Peers staged to since their last flush — what
        #: :meth:`flush_pending` visits instead of every neighbour.
        self._dirty: set[Peer] = set()
        #: Peers whose earliest MRAI release may have moved since the
        #: last :meth:`take_mrai_schedule` — the timer mirror of
        #: ``_dirty``: whoever schedules release events visits these,
        #: not every neighbour.
        self._mrai_moved: set[Peer] = set()
        #: The decision process's view of locally originated routes.
        self._local_info = PeerInfo(
            peer_id="<local>",
            asn=config.asn,
            address=config.local_address,
            bgp_identifier=config.bgp_identifier,
            is_ebgp=False,
        )
        self._peers_added = 0
        #: eBGP export rewrite, memoized: export-policy output → the
        #: interned (own AS prepended, next hop self, no LOCAL_PREF) set.
        #: A function of this speaker's config and the key alone.
        self._ebgp_rewrites: dict[PathAttributes, PathAttributes] = {}
        #: Prefixes whose Loc-RIB entry changed, for an owner that asked
        #: by putting a list here (and drains it); None = nobody did.
        self.loc_rib_changes: list[Prefix] | None = None
        self._session_log: list[tuple[str, str]] = []
        #: Optional observer called with every (peer_id, event) session
        #: transition appended to the log ("up" / "down: <reason>") —
        #: the hook session-recovery managers latch onto.
        self.on_session_event: Callable[[str, str], None] | None = None
        #: Optional telemetry probe (:class:`repro.telemetry.Telemetry`)
        #: receiving update/decision/FIB events. Observe-only: the probe
        #: never influences processing.
        self.probe = None
        self._now = 0.0
        # Route aggregation: configured aggregate -> summary_only flag;
        # active set tracks which are currently originated.
        self._aggregates: dict[Prefix, bool] = {}
        self._active_aggregates: set[Prefix] = set()
        self._refreshing_aggregates = False

    # -- peer/session management ------------------------------------------

    def add_peer(self, config: PeerConfig) -> Peer:
        if config.peer_id in self.peers:
            raise ValueError(f"duplicate peer id {config.peer_id!r}")
        peer = Peer(self, config, self._peers_added)
        self._peers_added += 1
        self.peers[config.peer_id] = peer
        return peer

    def remove_peer(self, peer_id: str) -> None:
        peer = self.peers.pop(peer_id)
        if peer.established:
            peer.fsm.handle(Event.MANUAL_STOP)
        self._flush_peer_routes(peer)
        self._reset_outbox(peer)

    def start_peer(self, peer_id: str, now: float = 0.0) -> None:
        """Administratively start the session (ManualStart)."""
        self.peers[peer_id].fsm.handle(Event.MANUAL_START, now=now)

    def transport_connected(self, peer_id: str, now: float = 0.0) -> None:
        """The harness reports the TCP connection as up."""
        self.peers[peer_id].fsm.handle(Event.TCP_CONNECTED, now=now)

    def transport_failed(self, peer_id: str, now: float = 0.0) -> None:
        self.peers[peer_id].fsm.handle(Event.TCP_FAILED, now=now)

    def set_send_callback(self, peer_id: str, callback: Callable[[bytes], None]) -> None:
        self.peers[peer_id].send_callback = callback

    def tick(self, now: float) -> None:
        """Advance all session timers to *now*."""
        for peer in self.peers.values():
            peer.fsm.tick(now)

    def session_events(self) -> list[tuple[str, str]]:
        """(peer_id, event) history: 'up' and 'down: <reason>' entries."""
        return list(self._session_log)

    # -- receive path -------------------------------------------------------

    def receive_bytes(self, peer_id: str, data: bytes, now: float = 0.0) -> None:
        """Feed raw wire bytes from a peer into the session.

        One call models one received packet: the per-packet costs the
        paper shows dominating small-UPDATE scenarios are charged per
        call by the platform models.
        """
        peer = self.peers[peer_id]
        self._now = max(self._now, now)
        self.work.packets_received += 1
        self.work.bytes_received += len(data)
        try:
            for message, _length in peer.framer.push(data):
                self.work.messages_decoded += 1
                peer.fsm.handle_message(message, now=now)
        except BgpError as error:
            peer.fsm.notify_and_close(error)

    # -- update processing (the benchmark's hot path) ------------------------

    def _process_update(self, peer: Peer, update: UpdateMessage) -> None:
        self.work.updates_processed += 1
        probe = self.probe
        if probe is not None:
            probe.update_begin(
                peer.config.peer_id, len(update.withdrawn), len(update.nlri)
            )

        for prefix in update.withdrawn:
            self.work.prefixes_withdrawn += 1
            self.audit.withdrawn += 1
            if peer.damper is not None:
                peer.damper.record_withdrawal(prefix, self._now)
            if peer.adj_rib_in.withdraw(prefix) is RouteChange.REMOVED:
                self.audit.withdrawals_applied += 1
                if probe is not None:
                    probe.decision(prefix, "withdraw_applied")
                self._run_decision(prefix)
            else:
                self.audit.withdrawals_absent += 1
                if probe is not None:
                    probe.decision(prefix, "withdraw_absent")

        if not update.nlri:
            if probe is not None:
                probe.update_end()
            return
        assert update.attributes is not None
        attrs = update.attributes

        # eBGP sender-side loop detection: drop routes carrying our AS.
        # The announcement still replaces the peer's previous route for
        # the NLRI (RFC 4271 §9.1.1 treat-as-withdraw): when a neighbour
        # repoints its best path through us, its old route must not
        # linger in our Adj-RIB-In — at topology scale that residue
        # leaves phantom reachability after the origin withdraws.
        if peer.is_ebgp and attrs.as_path.contains(self.config.asn):
            self.work.prefixes_announced += len(update.nlri)
            self.audit.announced += len(update.nlri)
            self.audit.loop_dropped += len(update.nlri)
            for prefix in update.nlri:
                if probe is not None:
                    probe.decision(prefix, "loop_dropped")
                if peer.adj_rib_in.withdraw(prefix) is RouteChange.REMOVED:
                    self._run_decision(prefix)
            if probe is not None:
                probe.update_end()
            return

        policy = peer.config.import_policy
        before = policy.evaluations
        for prefix in update.nlri:
            self.work.prefixes_announced += 1
            self.audit.announced += 1
            if peer.damper is not None and self._record_flap(peer, prefix):
                # Suppressed (RFC 2439): the route is not usable; any
                # previously accepted state must go away.
                self.audit.damping_suppressed += 1
                if probe is not None:
                    probe.decision(prefix, "damping_suppressed")
                if peer.adj_rib_in.withdraw(prefix) is RouteChange.REMOVED:
                    self._run_decision(prefix)
                continue
            # Interning here makes every downstream equality check —
            # Adj-RIB-In no-op detection, decision ties, Adj-RIB-Out
            # staging — a pointer comparison in the common case.
            imported = policy.apply(prefix, attrs)
            if imported is not None:
                imported = intern_attributes(imported)
            if imported is None:
                # Rejected: an existing route from this peer must go away.
                self.audit.policy_filtered += 1
                if probe is not None:
                    probe.decision(prefix, "policy_filtered")
                if peer.adj_rib_in.withdraw(prefix) is RouteChange.REMOVED:
                    self._run_decision(prefix)
                continue
            if peer.adj_rib_in.update(prefix, imported) is not RouteChange.UNCHANGED:
                self.audit.accepted += 1
                if probe is not None:
                    probe.decision(prefix, "accepted")
                self._run_decision(prefix)
            else:
                self.audit.unchanged += 1
                if probe is not None:
                    probe.decision(prefix, "unchanged")
        self.work.policy_evaluations += policy.evaluations - before
        if probe is not None:
            probe.update_end()

    def _record_flap(self, peer: Peer, prefix: Prefix) -> bool:
        """Record an announcement with the peer's damper; True = suppressed."""
        assert peer.damper is not None
        if prefix in peer.adj_rib_in:
            peer.damper.record_attribute_change(prefix, self._now)
        else:
            peer.damper.record_readvertisement(prefix, self._now)
        return peer.damper.is_suppressed(prefix, self._now)

    def _candidates(self, prefix: Prefix) -> list[Candidate]:
        candidates = [
            Candidate(attrs, peer.info())
            for peer in self.peers.values()
            if (attrs := peer.adj_rib_in.get(prefix)) is not None
        ]
        local = self._local_routes.get(prefix)
        if local is not None:
            candidates.append(Candidate(local, self._local_info))
        return candidates

    def _run_decision(self, prefix: Prefix) -> None:
        """Phase 2 + 3 for one prefix: select best, sync Loc-RIB, FIB, outputs."""
        before = self.decision.comparisons
        best = self.decision.select(self._candidates(prefix))
        self.work.decisions += self.decision.comparisons - before + 1
        probe = self.probe

        if best is None:
            if self.loc_rib.remove(prefix) is RouteChange.REMOVED:
                if self.loc_rib_changes is not None:
                    self.loc_rib_changes.append(prefix)
                self.fib.delete_route(prefix)
                self.work.fib_deletes += 1
                self.work.loc_rib_removes += 1
                if probe is not None:
                    probe.fib_op("delete", prefix)
                self._stage_withdraw_to_peers(prefix)
            self._refresh_covering_aggregates(prefix)
            return

        route = RibRoute(prefix, best.attributes, best.peer.peer_id)
        change = self.loc_rib.set_best(route)
        if change is RouteChange.UNCHANGED:
            self.work.loc_rib_unchanged += 1
            return
        if self.loc_rib_changes is not None:
            self.loc_rib_changes.append(prefix)
        assert best.attributes.next_hop is not None
        if change is RouteChange.ADDED:
            self.fib.add_route(prefix, best.attributes.next_hop)
            self.work.fib_adds += 1
            self.work.loc_rib_adds += 1
            if probe is not None:
                probe.fib_op("add", prefix)
        else:
            self.fib.replace_route(prefix, best.attributes.next_hop)
            self.work.fib_replaces += 1
            self.work.loc_rib_replaces += 1
            if probe is not None:
                probe.fib_op("replace", prefix)
        self._stage_announce_to_peers(route)
        self._refresh_covering_aggregates(prefix)

    # -- export path ---------------------------------------------------------

    def _export_attributes(self, peer: Peer, route: RibRoute) -> PathAttributes | None:
        # Well-known communities (RFC 1997) override everything else.
        communities = route.attributes.communities
        if WellKnownCommunity.NO_ADVERTISE in communities:
            return None
        if peer.is_ebgp and (
            WellKnownCommunity.NO_EXPORT in communities
            or WellKnownCommunity.NO_EXPORT_SUBCONFED in communities
        ):
            return None
        policy = peer.config.export_policy
        before = policy.evaluations
        exported = policy.apply(route.prefix, route.attributes)
        self.work.policy_evaluations += policy.evaluations - before
        if exported is None:
            return None
        # Interned so repeated exports of the same path collapse to one
        # flyweight: Adj-RIB-Out no-op staging and flush_updates'
        # attribute grouping both become identity hits.
        if not peer.is_ebgp:
            return intern_attributes(exported)
        rewritten = self._ebgp_rewrites.get(exported)
        if rewritten is None:
            rewritten = intern_attributes(
                replace(
                    exported,
                    as_path=exported.as_path.prepend(self.config.asn),
                    next_hop=self.config.local_address,
                    # LOCAL_PREF is iBGP-only: strip on eBGP export (§5.1.5).
                    local_pref=None,
                )
            )
            if len(self._ebgp_rewrites) < _EBGP_REWRITE_CAPACITY:
                self._ebgp_rewrites[exported] = rewritten
        return rewritten

    def _stage_announce_to_peers(self, route: RibRoute) -> None:
        if self._suppressed_by_aggregate(route.prefix):
            self._stage_withdraw_to_peers(route.prefix)
            return
        source = self.peers.get(route.peer_id)
        learned_over_ibgp = source is not None and not source.is_ebgp
        for peer in self.peers.values():
            if not peer.established:
                continue
            # Sender-side loop avoidance (the learned-from peer) and
            # iBGP split horizon (RFC 4271 §9.2: routes learned from an
            # internal peer are not re-advertised to other internal
            # peers). Either way the peer may hold a route we advertised
            # earlier — that must be withdrawn, not left dangling, or
            # two ASes can each keep the other's stale route alive
            # forever after the origin withdraws.
            if peer.config.peer_id == route.peer_id or (
                learned_over_ibgp and not peer.is_ebgp
            ):
                if (
                    self.config.split_horizon_withdraw
                    and peer.adj_rib_out.advertised(route.prefix) is not None
                ):
                    self._stage_one(peer, route.prefix, None)
                continue
            exported = self._export_attributes(peer, route)
            if exported is None:
                self._stage_one(peer, route.prefix, None)
            else:
                self._stage_one(peer, route.prefix, exported)

    def _stage_withdraw_to_peers(self, prefix: Prefix) -> None:
        for peer in self.peers.values():
            if peer.established:
                self._stage_one(peer, prefix, None)

    def _stage_one(
        self, peer: Peer, prefix: Prefix, attributes: PathAttributes | None
    ) -> None:
        """Stage one outbound change, passing it through the peer's MRAI
        gate when one is configured."""
        if peer.mrai is not None:
            gated = peer.mrai.offer(prefix, attributes, self._now)
            if gated is None:
                self._mrai_moved.add(peer)
                return
            prefix, attributes = gated
        self._stage(peer, prefix, attributes)

    def _stage(
        self, peer: Peer, prefix: Prefix, attributes: PathAttributes | None
    ) -> None:
        """Record one outbound change in the peer's Adj-RIB-Out; a peer
        whose pending delta moved is dirty until its next flush."""
        if attributes is None:
            moved = peer.adj_rib_out.stage_withdraw(prefix) is RouteChange.REMOVED
        else:
            moved = peer.adj_rib_out.stage(prefix, attributes) is not RouteChange.UNCHANGED
        if moved:
            self._dirty.add(peer)

    def release_mrai(self, peer_id: str, now: float) -> int:
        """Release MRAI-withheld changes for *peer_id* that are now due;
        returns how many were staged (flush afterwards to emit them)."""
        peer = self.peers[peer_id]
        self._now = max(self._now, now)
        if peer.mrai is None:
            return 0
        released = peer.mrai.release_due(now)
        self._mrai_moved.add(peer)
        for prefix, attributes in released:
            self._stage(peer, prefix, attributes)
        return len(released)

    def take_mrai_schedule(self) -> "list[tuple[str, float | None]]":
        """``(peer_id, earliest release time)`` for every peer whose MRAI
        deadline may have moved since the last call, in ``peers`` order;
        ``None`` = nothing is withheld any more (cancel its timer).

        The limiter owns the deadlines and this publishes the moves, so
        the owner of the clock only schedules what it is told — calling
        :meth:`release_mrai` at the reported time releases at least one
        change. A peer that is not reported has not moved.
        """
        moved = self._mrai_moved
        if not moved:
            return []
        self._mrai_moved = set()
        return [
            (peer.config.peer_id, peer.mrai.next_release_time())
            for peer in sorted(moved, key=_peer_order)
        ]

    def flush_pending(self, max_prefixes: int | None = None) -> list[bytes]:
        """:meth:`flush_updates` for every peer staged to since its last
        flush, in ``peers`` order — the order a walk over all peers
        emits in, which every golden and shard comparison is pinned to."""
        dirty = self._dirty
        if not dirty:
            return []
        self._dirty = set()
        packets: list[bytes] = []
        for peer in sorted(dirty, key=_peer_order):
            packets += self.flush_updates(peer.config.peer_id, max_prefixes)
        return packets

    def flush_updates(self, peer_id: str, max_prefixes: int | None = None) -> list[bytes]:
        """Pack this peer's pending Adj-RIB-Out delta into UPDATE packets.

        Announcements sharing identical attributes are packed together,
        up to *max_prefixes* per message (default: 500, the paper's
        large-packet size) and within the 4096-byte message limit.
        Returns the encoded wire packets.
        """
        peer = self.peers[peer_id]
        self._dirty.discard(peer)
        if not peer.adj_rib_out.has_pending():
            return []
        limit = max_prefixes or self.LARGE_UPDATE_PREFIXES
        announce, withdraw = peer.adj_rib_out.take_pending()

        packets: list[bytes] = []
        # Key-based sort: one (network, length) tuple per element beats
        # Prefix.__lt__'s two tuples per comparison; same order.
        sort_key = lambda p: (p.network, p.length)  # noqa: E731
        withdrawals = sorted(withdraw, key=sort_key)
        for start in range(0, len(withdrawals), limit):
            chunk = tuple(withdrawals[start : start + limit])
            packets.append(self._emit(peer, UpdateMessage(withdrawn=chunk)))

        by_attrs: dict[PathAttributes, list[Prefix]] = {}
        for prefix, attrs in announce.items():
            by_attrs.setdefault(attrs, []).append(prefix)
        for attrs, prefixes in by_attrs.items():
            prefixes.sort(key=sort_key)
            for start in range(0, len(prefixes), limit):
                chunk = tuple(prefixes[start : start + limit])
                packets.append(
                    self._emit(peer, UpdateMessage(attributes=attrs, nlri=chunk))
                )
        return packets

    def _emit(self, peer: Peer, update: UpdateMessage) -> bytes:
        wire = update.encode()
        self.work.updates_sent += 1
        self.work.prefixes_sent += update.transaction_count()
        self.work.bytes_sent += len(wire)
        if peer.send_callback is not None:
            peer.send_callback(wire)
        return wire

    def _send_message(self, peer: Peer, message: BgpMessage) -> None:
        wire = message.encode()
        self.work.bytes_sent += len(wire)
        if peer.send_callback is not None:
            peer.send_callback(wire)

    # -- route aggregation --------------------------------------------------------

    def configure_aggregate(self, aggregate: Prefix, summary_only: bool = False) -> None:
        """Originate *aggregate* whenever the Loc-RIB holds one of its
        more-specifics (RFC 4271 §9.2.2.2 semantics: the aggregate
        carries ATOMIC_AGGREGATE and an AGGREGATOR naming this speaker).
        With *summary_only*, the contributing more-specifics are
        suppressed from advertisement to peers."""
        self._aggregates[aggregate] = summary_only
        self._refresh_aggregate(aggregate)

    def remove_aggregate(self, aggregate: Prefix) -> None:
        self._aggregates.pop(aggregate, None)
        if aggregate in self._active_aggregates:
            self._active_aggregates.discard(aggregate)
            self.withdraw_local(aggregate)

    def _contributors(self, aggregate: Prefix) -> list[Prefix]:
        # Subtree query on the Loc-RIB trie: proportional to the number
        # of covered routes, not the table size.
        return [
            route.prefix
            for route in self.loc_rib.covered(aggregate)
            if route.prefix.length > aggregate.length
        ]

    def _refresh_covering_aggregates(self, prefix: Prefix) -> None:
        if self._refreshing_aggregates or not self._aggregates:
            return
        for aggregate in list(self._aggregates):
            if aggregate.covers(prefix) and prefix.length > aggregate.length:
                self._refresh_aggregate(aggregate)

    def _refresh_aggregate(self, aggregate: Prefix) -> None:
        has_contributors = bool(self._contributors(aggregate))
        active = aggregate in self._active_aggregates
        self._refreshing_aggregates = True
        try:
            if has_contributors and not active:
                from repro.bgp.attributes import Aggregator

                self._active_aggregates.add(aggregate)
                self.originate(
                    aggregate,
                    PathAttributes(
                        next_hop=self.config.local_address,
                        atomic_aggregate=True,
                        aggregator=Aggregator(
                            self.config.asn, self.config.bgp_identifier
                        ),
                    ),
                )
                if self._aggregates.get(aggregate):
                    # summary-only: retract contributors that were staged
                    # before the aggregate activated.
                    for contributor in self._contributors(aggregate):
                        self._stage_withdraw_to_peers(contributor)
            elif not has_contributors and active:
                self._active_aggregates.discard(aggregate)
                self.withdraw_local(aggregate)
        finally:
            self._refreshing_aggregates = False

    def _suppressed_by_aggregate(self, prefix: Prefix) -> bool:
        """True when *prefix* is a contributor to an active summary-only
        aggregate (and is not itself an aggregate we originated)."""
        if prefix in self._active_aggregates:
            return False
        return any(
            summary_only
            and aggregate in self._active_aggregates
            and aggregate.covers(prefix)
            and prefix.length > aggregate.length
            for aggregate, summary_only in self._aggregates.items()
        )

    # -- local route origination ----------------------------------------------

    def originate(self, prefix: Prefix, attributes: PathAttributes | None = None) -> None:
        """Inject a locally originated route (e.g. a static network)."""
        if attributes is None:
            attributes = PathAttributes(next_hop=self.config.local_address)
        elif attributes.next_hop is None:
            attributes = attributes.with_next_hop(self.config.local_address)
        self._local_routes[prefix] = intern_attributes(attributes)
        self._run_decision(prefix)

    def withdraw_local(self, prefix: Prefix) -> None:
        if self._local_routes.pop(prefix, None) is not None:
            self._run_decision(prefix)

    # -- session lifecycle ------------------------------------------------------

    def _on_session_up(self, peer: Peer) -> None:
        peer._info = None
        self._log_session_event(peer.config.peer_id, "up")
        # Initial table transfer (RFC 4271 §9.4 / paper Phase 2): stage
        # the entire Loc-RIB for the new neighbour.
        for route in self.loc_rib.routes():
            if route.peer_id == peer.config.peer_id:
                continue
            if self._suppressed_by_aggregate(route.prefix):
                continue
            exported = self._export_attributes(peer, route)
            if exported is not None:
                self._stage(peer, route.prefix, exported)

    def _on_session_down(self, peer: Peer, reason: str) -> None:
        self._log_session_event(peer.config.peer_id, f"down: {reason}")
        self._flush_peer_routes(peer)
        self._reset_outbox(peer)

    def _log_session_event(self, peer_id: str, event: str) -> None:
        self._session_log.append((peer_id, event))
        if self.on_session_event is not None:
            self.on_session_event(peer_id, event)

    def _reset_outbox(self, peer: Peer) -> None:
        """Session loss: the peer holds nothing of ours any more. Forget
        its Adj-RIB-Out (advertised and pending) and its MRAI gate, so
        nothing is emitted onto the dead session and the next one gets
        the full initial transfer (RFC 4271 §9.4)."""
        self._dirty.discard(peer)
        peer.adj_rib_out.clear()
        if peer.mrai is not None:
            peer.mrai.reset()
            self._mrai_moved.add(peer)

    def _flush_peer_routes(self, peer: Peer) -> None:
        """Session loss: every route learned from the peer is re-decided."""
        prefixes = list(peer.adj_rib_in.prefixes())
        peer.adj_rib_in.clear()
        for prefix in prefixes:
            self._run_decision(prefix)

    # -- introspection -------------------------------------------------------------

    def take_work(self) -> WorkLog:
        """Return and reset the accumulated work ledger."""
        work = self.work
        self.work = WorkLog()
        return work
