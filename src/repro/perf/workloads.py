"""Deterministic workload builders for ``bgpbench perf``.

Each builder returns plain data (wire streams, operation sequences,
candidate sets) so :mod:`repro.perf.bench` times the same inputs on
every run. Everything is seeded
through :mod:`repro.workload.tablegen`; no wall clock, no ambient
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.decision import Candidate, PeerInfo
from repro.net.addr import IPv4Address, Prefix
from repro.workload.tablegen import SyntheticTable, generate_table
from repro.workload.updates import UpdateStreamBuilder

__all__ = [
    "RibOp",
    "build_decode_stream",
    "build_rib_ops",
    "build_candidate_sets",
    "build_end_to_end_stream",
]

#: The AS the benchmarked speaker runs as, and the AS announcing to it.
LOCAL_ASN = 65000
PEER_ASN = 65100
PEER_ADDR = IPv4Address.parse("10.0.0.1")


def build_decode_stream(
    table_size: int, passes: int, prefixes_per_update: int = 1, seed: int = 8
) -> bytes:
    """A contiguous wire stream of UPDATE packets: *passes* alternating
    announce/withdraw sweeps over a seeded table — the flap-storm shape
    whose attribute repetition the decode cache is built for."""
    table = generate_table(table_size, seed=seed)
    builder = UpdateStreamBuilder(PEER_ASN, PEER_ADDR)
    return b"".join(builder.flap_storm(table, passes, prefixes_per_update))


@dataclass(frozen=True, slots=True)
class RibOp:
    """One replayable RIB operation.

    ``update`` carries attributes plus the pre-built Loc-RIB route (the
    speaker constructs the :class:`~repro.bgp.rib.RibRoute` before
    calling ``set_best``, so its allocation is not RIB cost and is kept
    out of the timed loop for both implementations). ``withdraw``
    carries only the prefix. ``refresh`` is an aggregate-contributor
    query against the Loc-RIB — what the speaker issues while covered
    routes churn under a configured aggregate (RFC 4271 §9.2.2.2).
    """

    kind: str  # "update" | "withdraw" | "refresh"
    prefix: Prefix
    attributes: "PathAttributes | None" = None
    route: "object | None" = None


def _path_attributes(table: SyntheticTable, index: int, variant: int) -> PathAttributes:
    """Attributes shaped like a route-collector table dump: full AS
    path, MED, and a handful of communities (origin + traffic-
    engineering tags), so attribute equality walks what real equality
    walks."""
    entry = table[index]
    return PathAttributes(
        origin=Origin.IGP,
        as_path=AsPath.from_asns(entry.path_via(PEER_ASN, variant % 3)),
        next_hop=PEER_ADDR,
        med=(index * 37 + variant) % 100,
        communities=(
            (PEER_ASN << 16) | 100,
            (PEER_ASN << 16) | (200 + variant % 3),
            ((entry.origin_as & 0xFFFF) << 16) | 666,
            (LOCAL_ASN << 16) | (index % 16),
        ),
    )


#: Peer identifier used for every pre-built Loc-RIB route.
RIB_PEER = "bench-peer"


def _aggregates_for(table: SyntheticTable, count: int) -> "list[Prefix]":
    """The first *count* distinct /8 aggregates covering table entries."""
    seen: list[Prefix] = []
    seen_octets: set[int] = set()
    for entry in table:
        octet = entry.prefix.network >> 24
        if octet not in seen_octets:
            seen_octets.add(octet)
            seen.append(Prefix(octet << 24, 8))
            if len(seen) >= count:
                break
    return seen


#: Changes carried by one "large packet" UPDATE (paper §III.D); the
#: churn sequence refreshes configured aggregates once per message.
MESSAGE_BATCH = 500


def build_rib_ops(
    table_size: int,
    rounds: int,
    duplicates: int = 4,
    aggregates: int = 4,
    seed: int = 8,
) -> list[RibOp]:
    """The steady-state churn sequence the RIBs replay.

    Per round: announce the table with a round-varying path (replace),
    re-announce it *duplicates* times with equal but freshly constructed
    attributes — the duplicate-announcement case the paper's scenarios
    5/6 isolate and the dominant shape of a real flap storm — then
    withdraw the odd half and re-announce it (tombstone reuse in the
    trie). Every :data:`MESSAGE_BATCH` changes — i.e. once per large
    UPDATE message — each configured /8 aggregate runs its contributor
    query, as a speaker with aggregation configured must while covered
    routes churn. Attribute objects are deliberately not shared between
    equal announcements (:func:`repro.perf.bench.bench_rib_churn`
    interns them, as the decode layer would).
    """
    from repro.bgp.rib import RibRoute

    table = generate_table(table_size, seed=seed)
    aggs = _aggregates_for(table, aggregates)
    ops: list[RibOp] = []
    changes = 0

    def bump() -> None:
        nonlocal changes
        changes += 1
        if changes % MESSAGE_BATCH == 0:
            for aggregate in aggs:
                ops.append(RibOp("refresh", aggregate))

    def announce(i: int, round_index: int) -> None:
        prefix = table[i].prefix
        attrs = _path_attributes(table, i, round_index)
        ops.append(RibOp("update", prefix, attrs, RibRoute(prefix, attrs, RIB_PEER)))
        bump()

    for round_index in range(rounds):
        for i in range(len(table)):
            announce(i, round_index)
        for _ in range(duplicates):
            for i in range(len(table)):
                announce(i, round_index)
        for i in range(1, len(table), 2):
            ops.append(RibOp("withdraw", table[i].prefix))
            bump()
        for i in range(1, len(table), 2):
            announce(i, round_index)
    return ops


def build_candidate_sets(
    table_size: int, peers: int = 4, seed: int = 8
) -> "list[list[Candidate]]":
    """Per-prefix candidate lists for the decision-process workload:
    *peers* competing paths per prefix, differing in AS-path length and
    peer identifier so every tie-break rung gets exercised."""
    table = generate_table(table_size, seed=seed)
    infos = [
        PeerInfo(
            peer_id=f"peer{p}",
            asn=PEER_ASN + p,
            address=IPv4Address(PEER_ADDR.value + p),
            bgp_identifier=IPv4Address.parse(f"1.1.1.{p + 1}"),
            is_ebgp=True,
        )
        for p in range(peers)
    ]
    sets: list[list[Candidate]] = []
    for i in range(len(table)):
        entry = table[i]
        candidates = [
            Candidate(
                PathAttributes(
                    origin=Origin.IGP,
                    as_path=AsPath.from_asns(entry.path_via(PEER_ASN + p, p % 3)),
                    next_hop=IPv4Address(PEER_ADDR.value + p),
                ),
                infos[p],
            )
            for p in range(peers)
        ]
        sets.append(candidates)
    return sets


def build_end_to_end_stream(table_size: int, rounds: int, seed: int = 8) -> bytes:
    """Wire stream for the full-pipeline workload (same shape as the
    decode stream; kept separate so sizes can diverge independently)."""
    return build_decode_stream(table_size, rounds, prefixes_per_update=1, seed=seed)
