"""Packing invariance of the speaker's UPDATE processing.

One UPDATE carrying N prefixes must leave a speaker in exactly the state
N one-prefix UPDATEs with the same attributes leave it in: the same
Loc-RIB and FIB, the same Adj-RIB-Out (advertised and pending) toward
every neighbour, the same MRAI and damping state, the same per-prefix
probe events in the same order, and the same work counters the
simulated CPU charges for. The speaker processes a packed UPDATE as
columns (one import verdict, one decision per distinct candidate set,
one export per winner); that may only remove repeated work, never
change an outcome or a charge.

Five eBGP neighbours feed UPDATEs over a small pool of overlapping
prefixes: withdrawn routes and NLRI in one UPDATE, a prefix repeated
in either, a prefix both withdrawn and announced. The attribute sets
include a path through the speaker's own AS (loop-dropped), routes an
import policy rejects or rewrites, NO_EXPORT routes, one set every
neighbour may announce verbatim (equal routes from different peers),
and export chains that hide some paths or none. One chain is both a
neighbour's import policy and another's export policy: its evaluation
counter then serves both, as ``ACCEPT_ALL`` does in the paper
scenarios. One neighbour is damped (RFC 2439) and one sits behind an
MRAI gate; the speaker may withdraw toward a route's source
(``split_horizon_withdraw``). The property runs with and without a
probe and a Loc-RIB watcher: the ledger and every Table III cell run
neither.
"""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes, WellKnownCommunity
from repro.bgp.damping import DampingConfig
from repro.bgp.messages import KeepaliveMessage, OpenMessage, UpdateMessage
from repro.bgp.policy import ACCEPT_ALL, Action, Match, Policy, PolicyResult, Rule
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address, Prefix

ROUTER_AS = 65000
POOL = tuple(Prefix(0xC6336400 + (index << 8), 24) for index in range(6))
LOCAL_PREFIX = POOL[0]

#: Rejects anything that crossed AS 64999 (announcements of variant 3)
#: or AS 65001: p1's import policy and p2's export policy.
FILTER = Policy(
    [
        Rule(Match(as_in_path=64999), PolicyResult.REJECT),
        Rule(Match(as_in_path=65001), PolicyResult.REJECT),
    ]
)
#: Rewrites what crossed AS 100 (variant 1) and rejects what crossed
#: AS 64999: p2's import policy.
PREFER_VIA_100 = Policy(
    [
        Rule(Match(as_in_path=100), action=Action(set_local_pref=200)),
        Rule(Match(as_in_path=64999), PolicyResult.REJECT),
    ]
)
#: An export chain that hides what crossed AS 500 (variant 5).
HIDE_VIA_500 = Policy([Rule(Match(as_in_path=500), PolicyResult.REJECT)])

#: Two withdrawals, or a withdrawal and a re-announcement with other
#: attributes, suppress a prefix within the few seconds a run spans.
DAMPING = DampingConfig(suppress_threshold=1500.0, reuse_threshold=750.0)
#: Steps are STEP_SECONDS apart: a gated prefix waits one or two steps.
MRAI_SECONDS = 15.0
STEP_SECONDS = 10.0

#: (peer id, ASN, import policy, export policy, damping, MRAI interval)
PEERS = (
    ("p0", 65001, ACCEPT_ALL, ACCEPT_ALL, None, 0.0),
    ("p1", 65002, FILTER, HIDE_VIA_500, None, 0.0),
    ("p2", 65003, PREFER_VIA_100, FILTER, None, 0.0),
    ("p3", 65004, ACCEPT_ALL, ACCEPT_ALL, DAMPING, 0.0),
    ("p4", 65005, ACCEPT_ALL, ACCEPT_ALL, None, MRAI_SECONDS),
)
DAMPED, GATED = "p3", "p4"


def attributes(peer: int, variant: int) -> PathAttributes:
    """Variant 0-6 of the attribute set neighbour *peer* announces."""
    if variant == 6:
        # The same set whoever sends it: only the peer tells them apart.
        return PathAttributes(as_path=AsPath.from_asns([64512, 600]), next_hop=SHARED_HOP)
    asn = PEERS[peer][1]
    path = {
        0: [asn],
        1: [asn, 100, 200],
        2: [asn, ROUTER_AS, 300],  # loop: carries the speaker's own AS
        3: [asn, 64999],  # rejected where the import policy filters 64999
        4: [asn, 400],
        5: [asn, 500],
    }[variant]
    return PathAttributes(
        as_path=AsPath.from_asns(path),
        next_hop=address(peer),
        med=variant % 2,
        communities=(WellKnownCommunity.NO_EXPORT,) if variant == 4 else (),
    )


SHARED_HOP = IPv4Address.parse("10.9.9.9")


def address(peer: int) -> IPv4Address:
    return IPv4Address(0x0A000001 + (peer << 8))


class RecordingFib:
    def __init__(self) -> None:
        self.routes: "dict[Prefix, IPv4Address]" = {}
        self.ops: "list[tuple]" = []

    def add_route(self, prefix, next_hop):
        self.routes[prefix] = next_hop
        self.ops.append(("add", prefix, next_hop))

    def replace_route(self, prefix, next_hop):
        self.routes[prefix] = next_hop
        self.ops.append(("replace", prefix, next_hop))

    def delete_route(self, prefix):
        del self.routes[prefix]
        self.ops.append(("delete", prefix))


class RecordingProbe:
    """Keeps the per-prefix events; UPDATE boundaries differ by design."""

    def __init__(self) -> None:
        self.events: "list[tuple]" = []

    def update_begin(self, peer_id, withdrawn, announced):
        pass

    def update_end(self):
        pass

    def decision(self, prefix, outcome):
        self.events.append(("decision", prefix, outcome))

    def fib_op(self, op, prefix):
        self.events.append(("fib", op, prefix))


def connect(router: BgpSpeaker, config: PeerConfig, identifier: IPv4Address) -> None:
    router.add_peer(config)
    router.start_peer(config.peer_id)
    router.transport_connected(config.peer_id)
    router.receive_bytes(config.peer_id, OpenMessage(config.asn, 0, identifier).encode())
    router.receive_bytes(config.peer_id, KeepaliveMessage().encode())
    assert router.peers[config.peer_id].established


def make_router(
    probe: bool = True, watch: bool = True, split_horizon_withdraw: bool = False
) -> BgpSpeaker:
    router = BgpSpeaker(
        SpeakerConfig(
            asn=ROUTER_AS,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.0.0.254"),
            hold_time=0.0,
            split_horizon_withdraw=split_horizon_withdraw,
        ),
        fib=RecordingFib(),
    )
    for peer, (peer_id, asn, import_policy, export_policy, damping, mrai) in enumerate(PEERS):
        config = PeerConfig(
            peer_id, asn, address(peer), import_policy, export_policy, damping, mrai
        )
        connect(router, config, IPv4Address(0x01010101 * (len(PEERS) - peer)))
    router.originate(LOCAL_PREFIX)
    router.flush_pending()
    router.take_mrai_schedule()
    if probe:
        router.probe = RecordingProbe()
    if watch:
        router.loc_rib_changes = []
    router.take_work()
    return router


COMPARED_WORK = (
    "prefixes_announced", "prefixes_withdrawn", "policy_evaluations", "decisions",
    "fib_adds", "fib_replaces", "fib_deletes",
)


def observable(router: BgpSpeaker) -> dict:
    outs = {}
    for peer_id, peer in router.peers.items():
        announce, withdraw = peer.adj_rib_out.pending()
        outs[peer_id] = (
            {prefix: peer.adj_rib_out.advertised(prefix) for prefix in POOL},
            list(announce.items()),
            sorted(withdraw),
        )
    gate = router.peers[GATED].mrai
    damper = router.peers[DAMPED].damper
    return {
        "loc_rib": list(router.loc_rib.routes()),
        "fib": router.fib.routes,
        "fib_ops": router.fib.ops,
        "adj_rib_out": outs,
        "dirty": sorted(peer.config.peer_id for peer in router._dirty),
        "mrai": (
            [(prefix, change.attributes) for prefix, change in gate._pending.items()],
            dict(gate._last_sent),
            (gate.passed, gate.withheld, gate.coalesced),
            router.take_mrai_schedule(),
        ),
        "damping": [damper.penalty_of(prefix, router._now) for prefix in POOL],
        "events": None if router.probe is None else router.probe.events,
        "loc_rib_changes": router.loc_rib_changes,
        "work": {name: getattr(router.work, name) for name in COMPARED_WORK},
        "audit": router.audit,
    }


def packets(withdrawn, nlri, attrs) -> "tuple[bytes, list[bytes]]":
    """One UPDATE carrying everything, and the one-prefix UPDATEs it
    stands for: the withdrawn routes first, then the NLRI, each in the
    UPDATE's own order."""
    packed = UpdateMessage(
        withdrawn=tuple(withdrawn), attributes=attrs if nlri else None, nlri=tuple(nlri)
    ).encode()
    single = [UpdateMessage(withdrawn=(prefix,)).encode() for prefix in withdrawn]
    single += [UpdateMessage(attributes=attrs, nlri=(prefix,)).encode() for prefix in nlri]
    return packed, single


#: (neighbour, withdrawn, NLRI, attribute variant, flush afterwards).
#: Either list may repeat a prefix or share one with the other.
step = st.tuples(
    st.integers(0, len(PEERS) - 1),
    st.lists(st.sampled_from(POOL), max_size=4),
    st.lists(st.sampled_from(POOL), max_size=len(POOL) + 2),
    st.integers(0, 6),
    st.booleans(),
).filter(lambda step: step[1] or step[2])


def run_steps(packed: BgpSpeaker, single: BgpSpeaker, steps, compare: bool) -> None:
    for index, (peer, withdrawn, nlri, variant, flush) in enumerate(steps):
        now = index * STEP_SECONDS
        peer_id = PEERS[peer][0]
        whole, parts = packets(withdrawn, nlri, attributes(peer, variant))
        packed.receive_bytes(peer_id, whole, now=now)
        for part in parts:
            single.receive_bytes(peer_id, part, now=now)
        if compare:
            assert observable(packed) == observable(single)
        if flush:
            assert packed.release_mrai(GATED, now) == single.release_mrai(GATED, now)
            assert packed.flush_pending() == single.flush_pending()


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=14), split_horizon_withdraw=st.booleans())
# Equal routes from p0 and p1 under two prefixes of one UPDATE: the
# candidate sets differ only in which peer holds the shared route.
@example(
    steps=[
        (0, [], [POOL[3]], 6, False),
        (1, [], [POOL[4]], 6, False),
        (2, [], [POOL[3], POOL[4]], 1, True),
        (2, [POOL[3], POOL[4]], [], 0, True),
    ],
    split_horizon_withdraw=False,
)
# A damped prefix repeated in one NLRI, after a withdrawal: the second
# copy is an attribute change that suppresses the route the first
# installed.
@example(
    steps=[
        (3, [], [POOL[2]], 0, False),
        (3, [POOL[2]], [POOL[2], POOL[1], POOL[2]], 1, True),
    ],
    split_horizon_withdraw=True,
)
def test_one_update_of_n_equals_n_updates_of_one(steps, split_horizon_withdraw):
    for probe, watch in itertools.product((True, False), repeat=2):
        packed, single = (
            make_router(probe, watch, split_horizon_withdraw) for _ in range(2)
        )
        run_steps(packed, single, steps, compare=True)
        assert packed.audit.balanced(), (probe, watch)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=10), split_horizon_withdraw=st.booleans())
def test_initial_transfer_after_a_packed_load_equals_after_single_loads(
    steps, split_horizon_withdraw
):
    """Phase 2 of the paper: a neighbour that comes up late is sent the
    Loc-RIB, whichever packing loaded it."""
    packed, single = (
        make_router(False, False, split_horizon_withdraw) for _ in range(2)
    )
    run_steps(packed, single, steps, compare=False)
    transfers = []
    for router in (packed, single):
        router.flush_pending()
        router.take_work()
        late = PeerConfig("late", 65009, IPv4Address.parse("10.0.9.1"))
        connect(router, late, IPv4Address.parse("9.1.1.1"))
        announce, withdraw = router.peers["late"].adj_rib_out.pending()
        transfers.append((
            list(announce.items()),
            sorted(withdraw),
            router.work.policy_evaluations,
            router.flush_updates("late"),
        ))
    assert transfers[0] == transfers[1]
