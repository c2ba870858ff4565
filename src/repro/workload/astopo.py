"""AS-level topology and valley-free path generation.

The paper's route selection discussion leans on Gao & Rexford's policy
model (ref. [11]): ASes are customers, providers, or peers of each
other, and routes propagate *valley-free* — an AS exports routes
learned from customers to everyone, but routes learned from providers
or peers only to customers. The AS paths seen in real tables are shaped
by these policies, not by shortest paths.

This module builds a synthetic AS hierarchy (tiers of providers down to
stub ASes, plus lateral peering), propagates reachability valley-free,
and yields per-origin AS paths as seen from a chosen vantage AS. The
table generator uses it to produce workloads whose AS-path length
distribution matches policy routing rather than a fixed hop count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum


class Relationship(Enum):
    """The business relationship of a neighbour, from the local AS's view."""

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"


#: The lowest ASN :meth:`AsTopology.hierarchy` assigns.
BASE_ASN = 1000

_INVERSE = {
    Relationship.CUSTOMER: Relationship.PROVIDER,
    Relationship.PROVIDER: Relationship.CUSTOMER,
    Relationship.PEER: Relationship.PEER,
}


class AsTopologyError(ValueError):
    """Raised for invalid AS-topology operations."""


@dataclass(slots=True)
class _AsNode:
    asn: int
    tier: int
    neighbors: dict[int, Relationship] = field(default_factory=dict)


class AsTopology:
    """A directed-relationship AS graph."""

    def __init__(self) -> None:
        self._nodes: dict[int, _AsNode] = {}

    def add_as(self, asn: int, tier: int = 3) -> None:
        if asn in self._nodes:
            raise AsTopologyError(f"duplicate AS {asn}")
        self._nodes[asn] = _AsNode(asn, tier)

    def _node(self, asn: int) -> _AsNode:
        node = self._nodes.get(asn)
        if node is None:
            raise AsTopologyError(f"unknown AS {asn}")
        return node

    def relate(self, a: int, b: int, relationship: Relationship) -> None:
        """Record that, from *a*'s view, *b* is *relationship* (and the
        inverse from *b*'s view)."""
        if a == b:
            raise AsTopologyError(f"self relationship at AS {a}")
        node_a, node_b = self._node(a), self._node(b)
        node_a.neighbors[b] = relationship
        node_b.neighbors[a] = _INVERSE[relationship]

    def ases(self) -> list[int]:
        return sorted(self._nodes)

    def tier_of(self, asn: int) -> int:
        return self._node(asn).tier

    def relationship(self, a: int, b: int) -> Relationship | None:
        return self._node(a).neighbors.get(b)

    def neighbors(self, asn: int) -> dict[int, Relationship]:
        return dict(self._node(asn).neighbors)

    def customers(self, asn: int) -> list[int]:
        return sorted(
            n for n, rel in self._node(asn).neighbors.items()
            if rel is Relationship.CUSTOMER
        )

    def links(self) -> list[tuple[int, int]]:
        """Every adjacency as a sorted (low-ASN, high-ASN) pair."""
        return sorted(
            (min(a, b), max(a, b))
            for a in self._nodes
            for b in self._nodes[a].neighbors
            if a < b
        )

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    # -- generation -----------------------------------------------------------

    @classmethod
    def hierarchy(
        cls,
        tier1: int = 4,
        tier2: int = 12,
        stubs: int = 60,
        seed: int = 42,
    ) -> "AsTopology":
        """A three-tier Internet-like hierarchy.

        Tier-1 ASes form a full peering clique; tier-2 ASes buy transit
        from 1-2 tier-1s and peer laterally with probability ~0.3; stub
        ASes buy transit from 1-2 tier-2s (multihoming). ASNs count up
        from :data:`BASE_ASN`, tier by tier.
        """
        rng = random.Random(seed)
        topology = cls()
        t1 = [BASE_ASN + i for i in range(tier1)]
        t2 = [BASE_ASN + tier1 + i for i in range(tier2)]
        t3 = [BASE_ASN + tier1 + tier2 + i for i in range(stubs)]
        for asn in t1:
            topology.add_as(asn, tier=1)
        for asn in t2:
            topology.add_as(asn, tier=2)
        for asn in t3:
            topology.add_as(asn, tier=3)

        for i, a in enumerate(t1):
            for b in t1[i + 1 :]:
                topology.relate(a, b, Relationship.PEER)
        for asn in t2:
            for provider in rng.sample(t1, k=rng.choice((1, 2))):
                topology.relate(asn, provider, Relationship.PROVIDER)
        for i, a in enumerate(t2):
            for b in t2[i + 1 :]:
                if rng.random() < 0.3:
                    topology.relate(a, b, Relationship.PEER)
        for asn in t3:
            for provider in rng.sample(t2, k=rng.choice((1, 1, 2))):
                topology.relate(asn, provider, Relationship.PROVIDER)
        return topology


def valley_free_paths(topology: AsTopology, origin: int) -> dict[int, tuple[int, ...]]:
    """AS paths from every AS to *origin* under valley-free export.

    Implements the two-phase Gao-Rexford propagation: routes climb
    customer→provider links first (phase "up"), may cross at most one
    peer link, then descend provider→customer links ("down"). Among
    valid routes each AS prefers customer > peer > provider learned
    routes, then shorter paths, then lower next-AS (deterministic).

    Returns {asn: path}, where path starts at the viewing AS's neighbor
    ... and ends at *origin* — i.e. exactly what that AS would see in an
    UPDATE's AS_PATH after the origin announced its prefix — keyed by
    the viewing AS. The origin maps to the empty path.
    """
    if origin not in topology:
        raise AsTopologyError(f"unknown origin AS {origin}")

    # State per AS: best (preference_class, length, path), where *path*
    # is the AS_PATH as received (neighbor ... origin, not including the
    # AS itself; empty for the origin) and preference_class is
    # 0=customer-learned, 1=peer, 2=provider (-1 = originated).
    best: dict[int, tuple[int, int, tuple[int, ...]]] = {origin: (-1, 0, ())}

    def better(candidate, incumbent) -> bool:
        return incumbent is None or candidate < incumbent

    # Bellman-Ford-style relaxation respecting export rules: an AS may
    # export a route to a neighbor class depending on how it learned it.
    #   learned from customer (or self) -> export to everyone
    #   learned from peer/provider     -> export to customers only
    changed = True
    iterations = 0
    while changed:
        iterations += 1
        if iterations > 4 * len(topology):
            raise AsTopologyError("valley-free propagation did not converge")
        changed = False
        for asn in topology.ases():
            state = best.get(asn)
            if state is None:
                continue
            learned_class, _length, path = state
            exports_to_all = learned_class <= 0  # self or customer-learned
            for neighbor, relationship in topology.neighbors(asn).items():
                if neighbor in path or neighbor == origin:
                    continue  # loop prevention
                # From asn's view: what is the neighbor to us?
                if relationship is Relationship.PROVIDER:
                    # Sending to our provider: allowed only for
                    # customer-learned/self routes.
                    if not exports_to_all:
                        continue
                    neighbor_class = 0  # provider learns it from a customer
                elif relationship is Relationship.PEER:
                    if not exports_to_all:
                        continue
                    neighbor_class = 1
                else:  # neighbor is our customer: always export
                    neighbor_class = 2
                candidate = (neighbor_class, len(path) + 1, (asn,) + path)
                if better(candidate, best.get(neighbor)):
                    best[neighbor] = candidate
                    changed = True

    return {asn: path for asn, (_class, _length, path) in best.items()}


def generate_policy_table(
    size: int,
    topology: AsTopology | None = None,
    vantage: int | None = None,
    seed: int = 42,
):
    """A synthetic table whose AS paths come from valley-free routing.

    Prefixes are originated by stub ASes of *topology*; each entry's
    path is what *vantage* (default: a stub AS) would receive under
    Gao-Rexford export policies. The resulting path-length distribution
    is the policy-shaped one real tables show, rather than a constant.

    Returns a :class:`repro.workload.tablegen.SyntheticTable` whose
    entries carry the valley-free transit sequence.
    """
    from repro.workload.tablegen import RouteEntry, SyntheticTable, draw_unique_prefixes

    if topology is None:
        topology = AsTopology.hierarchy(seed=seed)
    rng = random.Random(seed)
    stubs = [asn for asn in topology.ases() if topology.tier_of(asn) == 3]
    if len(stubs) < 2:
        raise AsTopologyError("topology needs at least two stub ASes")
    if vantage is None:
        vantage = stubs[0]
    origins = [asn for asn in stubs if asn != vantage]

    # One valley-free propagation per distinct origin, cached.
    paths_from: dict[int, dict[int, tuple[int, ...]]] = {}
    entries = []
    for prefix in draw_unique_prefixes(rng, size):
        # Find an origin actually reachable from the vantage.
        for _attempt in range(8):
            origin = rng.choice(origins)
            if origin not in paths_from:
                paths_from[origin] = valley_free_paths(topology, origin)
            path = paths_from[origin].get(vantage)
            if path:
                break
        else:
            raise AsTopologyError(
                f"vantage AS {vantage} cannot reach enough origins"
            )
        entries.append(RouteEntry(prefix, origin_as=path[-1], transit=tuple(path[:-1])))
    return SyntheticTable(tuple(entries), seed)
