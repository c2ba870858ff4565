"""Multi-router propagation: chains of simulated routers in one world.

The paper benchmarks one router in isolation; operators care how long a
route takes to propagate *through* a sequence of routers — each hop
pays the full receive/decide/install/re-advertise cost before the next
hop even sees the update. This module wires several
:class:`~repro.systems.router.RouterSystem` instances into one shared
simulation: router A's emitted UPDATE packets are delivered to router B
after a configurable link delay, in virtual time.

``run_chain_propagation`` builds a linear chain (origin speaker →
router 1 → ... → router N), injects a table at the head, and reports
when each hop's FIB is complete — the end-to-end convergence profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark.harness import SPEAKER1_ADDR, SPEAKER1_ASN, stream_packets
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.net.addr import IPv4Address
from repro.sim.cpu import World
from repro.systems.platforms import build_system
from repro.systems.router import RouterSystem
from repro.workload.tablegen import SyntheticTable, generate_table
from repro.workload.updates import UpdateStreamBuilder

#: Base ASN for chain routers (each hop gets its own AS: eBGP chain).
CHAIN_BASE_ASN = 64600


def build_router(platform: str, world: World, index: int = 0) -> RouterSystem:
    """Instantiate a chain hop inside an existing world, with its own AS
    (an eBGP chain — otherwise loop detection drops routes at hop 2)."""
    router_id = IPv4Address.parse(f"10.254.{index}.254")
    return build_system(
        platform,
        world=world,
        asn=CHAIN_BASE_ASN + index,
        router_id=router_id,
        local_address=router_id,
    )


@dataclass(slots=True)
class ChainResult:
    """Propagation timings through the chain."""

    platforms: list[str]
    table_size: int
    #: Virtual time at which each hop finished *processing* the full
    #: table — every update through its pipeline, FIB installed, and
    #: re-advertisement emitted (index 0 = first router).
    fib_complete_at: list[float] = field(default_factory=list)
    #: FIB sizes at the end (sanity: all should equal table_size).
    fib_sizes: list[int] = field(default_factory=list)

    @property
    def end_to_end(self) -> float:
        return self.fib_complete_at[-1] if self.fib_complete_at else 0.0

    def per_hop_delays(self) -> list[float]:
        """Incremental completion delay contributed by each hop."""
        out, previous = [], 0.0
        for t in self.fib_complete_at:
            out.append(t - previous)
            previous = t
        return out


def run_chain_propagation(
    platforms: "list[str]",
    table_size: int = 500,
    prefixes_per_update: int = 500,
    link_delay: float = 0.001,
    window: int = 8,
    seed: int = 42,
    table: SyntheticTable | None = None,
) -> ChainResult:
    """Propagate a table through a chain of routers, one per entry of
    *platforms*, and record when each hop's FIB completes."""
    # Lazy: a known back-edge into repro.topo (tests/test_layering.py).
    from repro.topo.wiring import wire_oneway

    if not platforms:
        raise ValueError("need at least one router in the chain")
    if table is None:
        table = generate_table(table_size, seed)

    world = World()
    routers = [
        build_router(platform, world, index)
        for index, platform in enumerate(platforms)
    ]

    # Head router peers with the origin speaker.
    routers[0].add_peer(
        PeerConfig("upstream", SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    routers[0].handshake("upstream", SPEAKER1_ASN, SPEAKER1_ADDR)

    # Each router peers with the next; sessions are established
    # functionally, then the downstream-facing send callback is wired
    # into the next router's costed receive path (one direction: the
    # table propagates head to tail).
    for index in range(len(routers) - 1):
        upstream, downstream = routers[index], routers[index + 1]
        up_asn = CHAIN_BASE_ASN + index
        down_asn = CHAIN_BASE_ASN + index + 1
        up_addr = IPv4Address.parse(f"10.254.{index}.1")
        upstream.add_peer(
            PeerConfig("downstream", down_asn, IPv4Address.parse(f"10.254.{index}.2"),
                       ACCEPT_ALL, ACCEPT_ALL)
        )
        downstream.add_peer(
            PeerConfig("upstream", up_asn, up_addr, ACCEPT_ALL, ACCEPT_ALL)
        )
        upstream.handshake("downstream", down_asn, IPv4Address.parse(f"10.254.{index}.2"))
        downstream.handshake("upstream", up_asn, up_addr)
        wire_oneway(upstream, "downstream", downstream, "upstream", link_delay)

    for router in routers:
        router.export_packing = prefixes_per_update
        router.reset_counters()

    builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
    # Feed the head with a window; downstream hops are event-driven.
    stream_packets(
        routers[0], "upstream", builder.announcements(table, prefixes_per_update), window
    )
    # A hop receives each prefix once, so the packet that completes the
    # table is its last one.
    return ChainResult(
        platforms=list(platforms),
        table_size=len(table),
        fib_complete_at=[
            router.last_completion
            if router.transactions_completed >= len(table)
            else float("inf")
            for router in routers
        ],
        fib_sizes=[len(router.fib) for router in routers],
    )
