"""A live AS-graph network: one BGP speaker per AS over delayed links.

:class:`TopologyHarness` instantiates an
:class:`~repro.workload.astopo.AsTopology` as a running network inside
one :class:`~repro.sim.cpu.World`:

* every AS gets a functionally real :class:`~repro.bgp.speaker.
  BgpSpeaker` (:class:`SpeakerNode`, zero virtual CPU cost — the clock
  is driven by link propagation), or a full costed
  :class:`~repro.systems.router.RouterSystem` when the AS is in the
  *measured* set (:class:`RouterNode`);
* every adjacency becomes a :class:`Link` with a per-link propagation
  delay drawn deterministically from the harness seed;
* every peering runs the compiled Gao–Rexford import/export policies
  (:mod:`repro.topo.policy`) and, optionally, per-peer MRAI timers and
  RFC 2439 flap damping.

MRAI release is event-driven: each speaker reports the peers whose
earliest release moved (``BgpSpeaker.take_mrai_schedule()`` — a change
was withheld, a release fired, a session went down) and the owning node
arms, re-arms or cancels that peer's one release event accordingly; the
release stages the due changes and flushes them onto the link. Nobody
walks the peers asking, so the simulation quiesces by itself — no
polling, no daemon timers.

Determinism: nodes are built in sorted-ASN order, peers added in
sorted-neighbour order, link delays drawn over the sorted link list
from one seeded PRNG, and every collection iterated in insertion
(sorted) order — two harnesses built from equal (topology, seed) are
event-for-event identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.analysis.sanitizer import Sanitizer
from repro.bgp.damping import DampingConfig
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address, Prefix
from repro.sim.cpu import World
from repro.topo.policy import export_policy, import_policy
from repro.topo.wiring import handshake_pair
from repro.workload.astopo import AsTopology, Relationship

_TIME_EPS = 1e-12


def as_address(asn: int) -> IPv4Address:
    """The deterministic router identity of an AS: ``10.<asn>/16ish.1``."""
    return IPv4Address((10 << 24) | (asn << 8) | 1)


def origin_prefix(asn: int) -> Prefix:
    """The /24 an AS originates in the benchmark families (96/8 space,
    disjoint from the 10/8 router identities)."""
    return Prefix.from_address(IPv4Address((96 << 24) | (asn << 8)), 24)


def peer_name(asn: int) -> str:
    """The peer id a node uses for its adjacency toward *asn*."""
    return f"as{asn}"


def draw_link_delays(
    topology: AsTopology, seed: int, link_delay: float
) -> "dict[tuple[int, int], float]":
    """Per-link propagation delays, drawn over the sorted link list from
    one seeded PRNG: delay in ``[0.5, 1.5) x link_delay``.

    The single source of truth for link delays: the harness builds its
    :class:`Link` objects from this mapping, and the parallel engine
    (:mod:`repro.parallel`) derives its cross-shard lookahead from the
    same draw — both sides see bit-equal floats by construction.
    """
    rng = random.Random(seed)
    return {
        (a, b): link_delay * (0.5 + rng.random()) for a, b in topology.links()
    }


@dataclass(slots=True)
class Link:
    """One adjacency: endpoints, propagation delay, per-direction packets."""

    a: int
    b: int
    delay: float
    a_to_b_packets: int = 0
    b_to_a_packets: int = 0

    def count(self, src_asn: int) -> None:
        if src_asn == self.a:
            self.a_to_b_packets += 1
        else:
            self.b_to_a_packets += 1

    def to_jsonable(self) -> dict[str, object]:
        return {
            "a": self.a,
            "b": self.b,
            "delay": self.delay,
            "a_to_b_packets": self.a_to_b_packets,
            "b_to_a_packets": self.b_to_a_packets,
        }


class SpeakerNode:
    """One AS as a plain (uncosted) speaker inside the harness.

    Processing costs no virtual time; the clock advances through link
    delays and MRAI timers, which is the right model when the quantity
    under study is protocol dynamics (convergence, path exploration)
    rather than a specific platform's CPU.
    """

    measured = False

    def __init__(self, harness: "TopologyHarness", asn: int):
        self.harness = harness
        self.asn = asn
        address = as_address(asn)
        self.speaker = BgpSpeaker(
            SpeakerConfig(
                asn=asn,
                bgp_identifier=address,
                local_address=address,
                hold_time=0.0,  # timers off: the harness drives all I/O
                split_horizon_withdraw=True,
            )
        )
        self._mrai_handles: dict[str, object] = {}
        self._best: dict[Prefix, tuple[int, ...] | None] = {}
        self._ghosts: dict[Prefix, set[tuple[int, ...]]] = {}
        self.path_changes = 0

    # -- construction -------------------------------------------------------

    def _peer_config(self, neighbor: int, relationship: Relationship) -> PeerConfig:
        import_chain, export_chain = self.harness.policies[relationship]
        return PeerConfig(
            peer_id=peer_name(neighbor),
            asn=neighbor,
            address=as_address(neighbor),
            import_policy=import_chain,
            export_policy=export_chain,
            damping=self.harness.damping,
            mrai_interval=self.harness.mrai_interval,
        )

    def add_peer(self, neighbor: int, relationship: Relationship) -> None:
        peer = self.speaker.add_peer(self._peer_config(neighbor, relationship))
        peer.fsm.attach_simulator(self.harness.sim)

    # -- traffic ------------------------------------------------------------

    def deliver(self, peer_id: str, data: bytes, delay: float = 0.0) -> None:
        self.harness.sim.schedule(delay, partial(self._arrive, peer_id, data))

    def _arrive(self, peer_id: str, data: bytes) -> None:
        self.speaker.receive_bytes(peer_id, data, now=self.harness.sim.now)
        self.flush()
        self.harness.note_activity()
        self.observe_paths()

    def flush(self) -> None:
        """Emit every staged Adj-RIB-Out delta, then (re)arm MRAI
        release events for anything the gates withheld."""
        self.speaker.flush_pending(self.harness.packing)
        if self.harness.mrai_interval:
            self._arm_mrai()

    # -- local origination (harness-driven, zero virtual cost) ---------------

    def originate(self, prefix: Prefix, attributes=None) -> None:
        self._advance_clock()
        self.speaker.originate(prefix, attributes)
        self.flush()
        self.harness.note_activity()
        self.observe_paths()

    def withdraw(self, prefix: Prefix) -> None:
        self._advance_clock()
        self.speaker.withdraw_local(prefix)
        self.flush()
        self.harness.note_activity()
        self.observe_paths()

    def _advance_clock(self) -> None:
        # Keep the speaker's notion of now (used by MRAI offers and the
        # damper) in step with the simulator for harness-driven calls,
        # exactly as receive_bytes does for packet-driven ones.
        self.speaker._now = max(self.speaker._now, self.harness.sim.now)

    # -- MRAI ----------------------------------------------------------------

    def _arm_mrai(self) -> None:
        """Apply the speaker's MRAI schedule to the per-peer release
        events: only the peers it reports are touched."""
        sim = self.harness.sim
        for peer_id, due in self.speaker.take_mrai_schedule():
            handle = self._mrai_handles.get(peer_id)
            if due is None:
                if handle is not None and handle.active:
                    handle.cancel()
                continue
            due = max(due, sim.now)
            if handle is None:
                self._mrai_handles[peer_id] = sim.schedule_at(
                    due, partial(self._release_mrai, peer_id)
                )
            elif not handle.active or handle.time > due + _TIME_EPS:
                handle.reschedule(max(0.0, due - sim.now))
            # else: already armed at or before the due time; the firing
            # release re-arms for whatever remains withheld.

    def _release_mrai(self, peer_id: str) -> None:
        released = self.speaker.release_mrai(peer_id, self.harness.sim.now)
        if released:
            self.speaker.flush_updates(
                peer_id, max_prefixes=self.harness.packing
            )
            self.harness.note_activity()
        self._arm_mrai()

    @property
    def mrai_deferrals(self) -> int:
        """Outbound changes withheld or coalesced by this node's gates."""
        return sum(
            peer.mrai.withheld + peer.mrai.coalesced
            for peer in self.speaker.peers.values()
            if peer.mrai is not None
        )

    # -- path watching (ghost-path / convergence accounting) -----------------

    def reset_watch(self, prefixes: tuple[Prefix, ...]) -> None:
        """Baseline the watched prefixes at their current best paths;
        subsequent changes count as path changes, every distinct
        transient path adopted counts as a ghost path."""
        self._best = {prefix: self.best_path(prefix) for prefix in prefixes}
        self._ghosts = {prefix: set() for prefix in prefixes}
        self.path_changes = 0
        # From here on the speaker reports which Loc-RIB entries moved.
        self.speaker.loc_rib_changes = []

    def best_path(self, prefix: Prefix) -> "tuple[int, ...] | None":
        route = self.speaker.loc_rib.get(prefix)
        return None if route is None else route.attributes.as_path.all_asns()

    def observe_paths(self) -> None:
        """Account for the watched prefixes whose Loc-RIB entry changed
        since the last call (a best path only moves when its entry does)."""
        changes = self.speaker.loc_rib_changes
        if not changes:
            return
        best = self._best
        for prefix in changes:
            if prefix not in best:
                continue
            path = self.best_path(prefix)
            if path != best[prefix]:
                best[prefix] = path
                self.path_changes += 1
                if path is not None:
                    self._ghosts[prefix].add(path)
        changes.clear()

    @property
    def ghost_paths(self) -> int:
        """Distinct transient best paths adopted since the last
        :meth:`reset_watch` — the path-exploration count."""
        return sum(len(paths) for paths in self._ghosts.values())

    # -- measurement ---------------------------------------------------------

    def reset_measurement(self) -> None:
        self.speaker.take_work()

    @property
    def loc_rib_size(self) -> int:
        return sum(1 for _ in self.speaker.loc_rib.prefixes())


class RouterNode(SpeakerNode):
    """A *measured* AS: a full costed router system in the shared world.

    Deliveries run through the platform's staged CPU pipeline (receive,
    decision, FIB install, re-advertisement all cost virtual time);
    the surrounding uncosted speakers provide the protocol environment
    at graph scale. Harness-driven control operations (origination,
    MRAI release emission) stay uncosted, as in the paper's setup
    phases.
    """

    measured = True

    def __init__(self, harness: "TopologyHarness", asn: int, platform: str):
        # Deliberately skip SpeakerNode.__init__: the speaker lives
        # inside the RouterSystem.
        from repro.systems.platforms import get_spec
        from repro.systems.router import CiscoRouter, XorpRouter

        self.harness = harness
        self.asn = asn
        self.platform = platform
        address = as_address(asn)
        spec = get_spec(platform)
        cls = CiscoRouter if spec.kind == "cisco" else XorpRouter
        self.router = cls(
            spec,
            world=harness.world,
            asn=asn,
            router_id=address,
            local_address=address,
            split_horizon_withdraw=True,
        )
        self.router.export_packing = harness.packing
        self.router.on_packet_done = self._packet_done
        self.speaker = self.router.speaker
        self._mrai_handles = {}
        self._best = {}
        self._ghosts = {}
        self.path_changes = 0

    def add_peer(self, neighbor: int, relationship: Relationship) -> None:
        self.router.add_peer(self._peer_config(neighbor, relationship))

    def deliver(self, peer_id: str, data: bytes, delay: float = 0.0) -> None:
        self.router.deliver(peer_id, data, delay=delay)

    def _packet_done(self) -> None:
        # The router flushed its own exports at the costed chain tail.
        self._arm_mrai()
        self.harness.note_activity()
        self.observe_paths()

    def reset_measurement(self) -> None:
        self.router.reset_counters()


class TopologyHarness:
    """Wire an :class:`AsTopology` into a live, deterministic network.

    The refactored home of speaker/session wiring: where
    :mod:`repro.benchmark.harness` assumes exactly two speakers around
    one router, this builds any graph — sessions established through
    :mod:`repro.topo.wiring`, policies compiled per relationship, links
    delayed per the seed.
    """

    def __init__(
        self,
        topology: AsTopology,
        seed: int = 42,
        link_delay: float = 0.01,
        mrai_interval: float = 0.0,
        damping: bool = False,
        packing: int = 1,
        measured: "frozenset[int] | set[int] | tuple[int, ...]" = (),
        platform: str = "pentium3",
        world: "World | None" = None,
    ):
        if link_delay <= 0:
            raise ValueError(f"link_delay must be positive: {link_delay}")
        if packing < 1:
            raise ValueError(f"packing must be >= 1: {packing}")
        measured_set = frozenset(measured)
        unknown = sorted(measured_set - set(topology.ases()))
        if unknown:
            raise ValueError(f"measured ASes not in topology: {unknown}")

        self.topology = topology
        self.seed = seed
        self.link_delay = link_delay
        self.mrai_interval = mrai_interval
        #: One (frozen) RFC 2439 parameter set shared by every peering;
        #: None = damping off.
        self.damping = DampingConfig() if damping else None
        self.packing = packing
        self.world = world if world is not None else World()
        self.sim = self.world.sim
        self.last_activity = 0.0
        self.watched: tuple[Prefix, ...] = ()
        # One compiled Gao–Rexford chain pair per relationship, shared by
        # every peering of the harness: speakers read only deltas of
        # ``Policy.evaluations``, and a shared chain's memo answers for
        # the whole graph (the same routes cross it everywhere).
        self.policies = {
            relationship: (import_policy(relationship), export_policy(relationship))
            for relationship in Relationship
        }

        # Nodes in sorted-ASN order (dict insertion order is iteration
        # order everywhere below).
        self.nodes: dict[int, SpeakerNode] = {}
        for asn in topology.ases():
            if asn in measured_set:
                self.nodes[asn] = RouterNode(self, asn, platform)
            else:
                self.nodes[asn] = SpeakerNode(self, asn)

        # Links with per-link delay drawn over the sorted link list from
        # one seeded PRNG (see draw_link_delays).
        self.links: dict[tuple[int, int], Link] = {
            (a, b): Link(a, b, delay)
            for (a, b), delay in draw_link_delays(topology, seed, link_delay).items()
        }

        # Peering config in sorted-neighbour order.
        for asn, node in self.nodes.items():
            for neighbor, relationship in sorted(topology.neighbors(asn).items()):
                node.add_peer(neighbor, relationship)

        # Establish every session functionally *before* wiring the link
        # callbacks: handshake bytes must not travel as simulated
        # packets (they would arrive at already-established FSMs).
        for a, b in topology.links():
            handshake_pair(
                self.nodes[a].speaker,
                peer_name(b),
                self.nodes[b].speaker,
                peer_name(a),
            )

        # Wire both directions of every link.
        for link in self.links.values():
            self._wire_direction(link, link.a, link.b)
            self._wire_direction(link, link.b, link.a)

        self.reset_measurement()

    def _wire_direction(self, link: Link, src_asn: int, dst_asn: int) -> None:
        dst_node = self.nodes[dst_asn]
        dst_peer = peer_name(src_asn)

        def forward(data: bytes) -> None:
            link.count(src_asn)
            dst_node.deliver(dst_peer, data, delay=link.delay)

        self.nodes[src_asn].speaker.set_send_callback(peer_name(dst_asn), forward)

    # -- measurement lifecycle ----------------------------------------------

    def reset_measurement(self) -> None:
        """Zero every node's work ledger at a phase boundary."""
        for node in self.nodes.values():
            node.reset_measurement()
        self.last_activity = self.sim.now

    def note_activity(self) -> None:
        """A node processed or emitted routing state: remember when.
        ``last_activity`` is the convergence instant once the run goes
        quiescent (trailing no-op MRAI releases do not bump it)."""
        self.last_activity = self.sim.now

    def start_watch(self, prefixes) -> None:
        """Begin ghost-path accounting for *prefixes* on every node."""
        self.watched = tuple(sorted(prefixes))
        for node in self.nodes.values():
            node.reset_watch(self.watched)

    def run(self, until: "float | None" = None) -> float:
        """Run the world to quiescence (or *until*); returns final time."""
        return self.world.run(until=until)

    def quiescent(self) -> bool:
        """True when no live (non-daemon) events remain."""
        return self.sim.peek_time() is None

    # -- aggregate views -----------------------------------------------------

    def total(self, field: str) -> int:
        """Sum one WorkLog field (or property) across all nodes."""
        return sum(getattr(node.speaker.work, field) for node in self.nodes.values())

    def total_routes(self) -> int:
        """Loc-RIB entries across the graph — the 'fib_size_after' of a
        topology cell (plain nodes run a null FIB; the Loc-RIB is the
        authoritative converged state)."""
        return sum(node.loc_rib_size for node in self.nodes.values())

    def publish_metrics(self, registry) -> None:
        """Publish per-AS and per-link counters into a telemetry
        :class:`~repro.telemetry.metrics.MetricRegistry`. Observe-only:
        results never read the registry back, so instrumented runs stay
        byte-identical."""
        publish_topology_metrics(
            registry,
            (
                (
                    asn,
                    node.speaker.work.updates_sent,
                    node.speaker.work.updates_processed,
                    node.speaker.work.transactions,
                    node.mrai_deferrals,
                    node.ghost_paths,
                )
                for asn, node in self.nodes.items()
            ),
            (
                (link.a, link.b, link.a_to_b_packets, link.b_to_a_packets)
                for link in self.links.values()
            ),
        )


def publish_topology_metrics(registry, node_rows, link_rows) -> None:
    """Publish topology counters from plain rows.

    *node_rows* yields ``(asn, updates_sent, updates_received,
    transactions, mrai_deferrals, ghost_paths)`` and *link_rows* yields
    ``(a, b, a_to_b_packets, b_to_a_packets)`` — both in the harness's
    canonical order (sorted ASN; ``topology.links()`` order). Shared
    between :meth:`TopologyHarness.publish_metrics` (live nodes) and the
    parallel engine (merged shard reports) so both produce byte-equal
    metric artifacts."""
    updates_sent = registry.counter(
        "topo_updates_sent_total",
        "UPDATE messages emitted, per AS",
        labels=("asn",),
    )
    updates_received = registry.counter(
        "topo_updates_received_total",
        "UPDATE messages processed, per AS",
        labels=("asn",),
    )
    transactions = registry.counter(
        "topo_transactions_total",
        "prefix-level route changes processed, per AS",
        labels=("asn",),
    )
    deferrals = registry.counter(
        "topo_mrai_deferrals_total",
        "outbound changes withheld or coalesced by MRAI gates, per AS",
        labels=("asn",),
    )
    ghosts = registry.counter(
        "topo_ghost_paths_total",
        "distinct transient best paths adopted during the watched phase, per AS",
        labels=("asn",),
    )
    link_packets = registry.counter(
        "topo_link_packets_total",
        "packets carried, per directed link",
        labels=("link",),
    )
    for asn, sent, received, txns, mrai_deferrals, ghost_paths in node_rows:
        label = str(asn)
        updates_sent.inc(sent, asn=label)
        updates_received.inc(received, asn=label)
        transactions.inc(txns, asn=label)
        deferrals.inc(mrai_deferrals, asn=label)
        ghosts.inc(ghost_paths, asn=label)
    for a, b, a_to_b, b_to_a in link_rows:
        link_packets.inc(a_to_b, link=f"{a}->{b}")
        link_packets.inc(b_to_a, link=f"{b}->{a}")


class TopologySanitizer(Sanitizer):
    """Checked mode for a whole topology, not just one router.

    Inherits the simulator invariants (monotonic clock, stable
    tie-break, heap integrity) and extends prefix-conservation to every
    node's audit ledger after every event; at quiescence it additionally
    checks RIB/FIB agreement on every measured node.
    """

    def __init__(self, harness: TopologyHarness, heap_check_every: int = 1):
        super().__init__(heap_check_every=heap_check_every)
        self.harness = harness
        self.attach_simulator(harness.sim)

    def after_fire(self, event) -> None:
        super().after_fire(event)
        self.stats.conservation_checks += 1
        for node in self.harness.nodes.values():
            audit = node.speaker.audit
            if not audit.balanced():
                self._violation(
                    "prefix-conservation",
                    f"AS {node.asn}: received prefixes not conserved: "
                    f"{audit.describe_imbalance()}",
                )

    def check_quiescent(self) -> None:
        self.stats.quiescent_checks += 1
        for node in self.harness.nodes.values():
            audit = node.speaker.audit
            if not audit.balanced():
                self._violation(
                    "prefix-conservation",
                    f"AS {node.asn}: received prefixes not conserved: "
                    f"{audit.describe_imbalance()}",
                )
            if isinstance(node, RouterNode):
                rib_view = node.speaker.loc_rib.fib_view()
                fib_view = sorted(node.router.fib.routes())
                if rib_view != fib_view:
                    self._violation(
                        "rib-fib-agreement",
                        f"AS {node.asn}: Loc-RIB ({len(rib_view)} routes) and "
                        f"FIB ({len(fib_view)} routes) disagree after quiescence",
                    )
