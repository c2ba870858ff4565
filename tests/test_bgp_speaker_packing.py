"""Packing invariance of the speaker's UPDATE processing.

One UPDATE carrying N prefixes must leave a speaker in exactly the state
N one-prefix UPDATEs with the same attributes leave it in: the same
Loc-RIB and FIB, the same Adj-RIB-Out (advertised and pending) toward
every neighbour, the same per-prefix probe events in the same order,
and the same work counters the simulated CPU charges for. Per-UPDATE
shortcuts (one import verdict, one decision or export per distinct
candidate set) may only remove repeated work, never change an outcome
or a charge.

Three eBGP neighbours feed announce-only or withdraw-only UPDATEs over
a small pool of overlapping prefixes. The attribute sets include a path
through the speaker's own AS (loop-dropped), routes an import policy
rejects or rewrites, NO_EXPORT routes, one set every neighbour may
announce verbatim (equal routes from different peers), and export
chains that hide some paths or none. One chain is both a neighbour's import
policy and another's export policy: its evaluation counter then serves
both, as ``ACCEPT_ALL`` does in the paper scenarios.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes, WellKnownCommunity
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

#: (peer id, ASN, import policy, export policy)
PEERS = (
    ("p0", 65001, ACCEPT_ALL, ACCEPT_ALL),
    ("p1", 65002, FILTER, HIDE_VIA_500),
    ("p2", 65003, PREFER_VIA_100, FILTER),
)


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


def make_router() -> BgpSpeaker:
    router = BgpSpeaker(
        SpeakerConfig(
            asn=ROUTER_AS,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.0.0.254"),
            hold_time=0.0,
        ),
        fib=RecordingFib(),
    )
    for peer, (peer_id, asn, import_policy, export_policy) in enumerate(PEERS):
        router.add_peer(PeerConfig(peer_id, asn, address(peer), import_policy, export_policy))
        router.start_peer(peer_id)
        router.transport_connected(peer_id)
        identifier = IPv4Address(0x01010101 * (3 - peer))
        router.receive_bytes(peer_id, OpenMessage(asn, 0, identifier).encode())
        router.receive_bytes(peer_id, KeepaliveMessage().encode())
        assert router.peers[peer_id].established
    router.originate(LOCAL_PREFIX)
    router.flush_pending()
    router.probe = RecordingProbe()
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
    return {
        "loc_rib": list(router.loc_rib.routes()),
        "fib": router.fib.routes,
        "fib_ops": router.fib.ops,
        "adj_rib_out": outs,
        "events": router.probe.events,
        "loc_rib_changes": router.loc_rib_changes,
        "work": {name: getattr(router.work, name) for name in COMPARED_WORK},
        "audit": router.audit,
    }


step = st.tuples(
    st.integers(0, len(PEERS) - 1),
    st.booleans(),  # announce (True) or withdraw
    st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL), unique=True),
    st.integers(0, 6),
    st.booleans(),  # flush both speakers afterwards
)


@settings(max_examples=100, deadline=None)
@given(st.lists(step, min_size=1, max_size=14))
# Equal routes from p0 and p1 under two prefixes of one UPDATE: the
# candidate sets differ only in which peer holds the shared route.
@example([
    (0, True, [POOL[3]], 6, False),
    (1, True, [POOL[4]], 6, False),
    (2, True, [POOL[3], POOL[4]], 1, True),
    (2, False, [POOL[3], POOL[4]], 0, True),
])
def test_one_update_of_n_equals_n_updates_of_one(steps):
    packed, single = make_router(), make_router()
    for peer, announce, prefixes, variant, flush in steps:
        peer_id = PEERS[peer][0]
        attrs = attributes(peer, variant) if announce else None

        def update(nlri):
            if announce:
                return UpdateMessage(attributes=attrs, nlri=tuple(nlri)).encode()
            return UpdateMessage(withdrawn=tuple(nlri)).encode()

        packed.receive_bytes(peer_id, update(prefixes))
        for prefix in prefixes:
            single.receive_bytes(peer_id, update([prefix]))
        assert observable(packed) == observable(single)
        if flush:
            assert packed.flush_pending() == single.flush_pending()
    assert packed.audit.balanced()
