"""Speaker-level attribute semantics: MED, communities, and policy
interactions exercised through full wire-format processing."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import KeepaliveMessage, OpenMessage, UpdateMessage, decode_message
from repro.bgp.policy import Action, Match, Policy, PolicyResult, Rule
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address, Prefix

P1 = Prefix.parse("192.0.2.0/24")
ROUTER_AS = 65000


def make_router():
    return BgpSpeaker(
        SpeakerConfig(
            asn=ROUTER_AS,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.0.0.254"),
            hold_time=0.0,
        )
    )


def connect(router, peer_id, asn, addr_text, bgp_id_text, **kwargs):
    addr = IPv4Address.parse(addr_text)
    router.add_peer(PeerConfig(peer_id, asn, addr, **kwargs))
    router.set_send_callback(peer_id, lambda data: None)
    router.start_peer(peer_id)
    router.transport_connected(peer_id)
    router.receive_bytes(peer_id, OpenMessage(asn, 0, IPv4Address.parse(bgp_id_text)).encode())
    router.receive_bytes(peer_id, KeepaliveMessage().encode())
    return addr


def announce(router, peer_id, attrs, prefixes=(P1,)):
    router.receive_bytes(
        peer_id, UpdateMessage(attributes=attrs, nlri=tuple(prefixes)).encode()
    )


class TestMedThroughSpeaker:
    def test_med_breaks_tie_same_neighbor_as(self):
        """Two sessions to the same neighbouring AS: lower MED wins."""
        router = make_router()
        a_addr = connect(router, "a", 65001, "10.0.1.1", "1.1.1.1")
        connect(router, "b", 65001, "10.0.1.2", "1.1.1.2")
        announce(router, "a", PathAttributes(
            as_path=AsPath.from_asns([65001, 300]), next_hop=a_addr, med=10))
        announce(router, "b", PathAttributes(
            as_path=AsPath.from_asns([65001, 300]),
            next_hop=IPv4Address.parse("10.0.1.2"), med=5))
        assert router.loc_rib.get(P1).peer_id == "b"

    def test_med_ignored_across_different_as(self):
        router = make_router()
        connect(router, "a", 65001, "10.0.1.1", "1.1.1.1")
        connect(router, "b", 65002, "10.0.1.2", "2.2.2.2")
        # a has worse MED but a lower router-id; different neighbour AS
        # means MED is skipped and the identifier decides.
        announce(router, "a", PathAttributes(
            as_path=AsPath.from_asns([65001, 300]),
            next_hop=IPv4Address.parse("10.0.1.1"), med=100))
        announce(router, "b", PathAttributes(
            as_path=AsPath.from_asns([65002, 300]),
            next_hop=IPv4Address.parse("10.0.1.2"), med=1))
        assert router.loc_rib.get(P1).peer_id == "a"


class TestCommunityPropagation:
    def test_communities_survive_transit(self):
        router = make_router()
        connect(router, "in", 65001, "10.0.1.1", "1.1.1.1")
        connect(router, "out", 65002, "10.0.1.2", "2.2.2.2")
        announce(router, "in", PathAttributes(
            as_path=AsPath.from_asns([65001]),
            next_hop=IPv4Address.parse("10.0.1.1"),
            communities=(65001 << 16 | 70, 65001 << 16 | 80)))
        packets = router.flush_updates("out")
        update = decode_message(packets[0])
        assert update.attributes.communities == (65001 << 16 | 70, 65001 << 16 | 80)

    def test_export_policy_can_strip_communities(self):
        strip = Policy([Rule(Match(), PolicyResult.ACCEPT, Action(strip_communities=True))])
        router = make_router()
        connect(router, "in", 65001, "10.0.1.1", "1.1.1.1")
        connect(router, "out", 65002, "10.0.1.2", "2.2.2.2", export_policy=strip)
        announce(router, "in", PathAttributes(
            as_path=AsPath.from_asns([65001]),
            next_hop=IPv4Address.parse("10.0.1.1"),
            communities=(99,)))
        update = decode_message(router.flush_updates("out")[0])
        assert update.attributes.communities == ()

    def test_import_policy_tags_routes(self):
        tag = Policy([Rule(Match(), PolicyResult.ACCEPT, Action(add_community=12345))])
        router = make_router()
        connect(router, "in", 65001, "10.0.1.1", "1.1.1.1", import_policy=tag)
        announce(router, "in", PathAttributes(
            as_path=AsPath.from_asns([65001]),
            next_hop=IPv4Address.parse("10.0.1.1")))
        assert 12345 in router.loc_rib.get(P1).attributes.communities


class TestPolicyPrependThroughSpeaker:
    def test_export_prepend_lengthens_advertised_path(self):
        prepend = Policy([Rule(Match(), PolicyResult.ACCEPT,
                               Action(prepend_as=ROUTER_AS, prepend_count=2))])
        router = make_router()
        connect(router, "in", 65001, "10.0.1.1", "1.1.1.1")
        connect(router, "out", 65002, "10.0.1.2", "2.2.2.2", export_policy=prepend)
        announce(router, "in", PathAttributes(
            as_path=AsPath.from_asns([65001]),
            next_hop=IPv4Address.parse("10.0.1.1")))
        update = decode_message(router.flush_updates("out")[0])
        # Policy prepends twice, the eBGP export prepends once more.
        assert update.attributes.as_path.all_asns() == (
            ROUTER_AS, ROUTER_AS, ROUTER_AS, 65001
        )

    def test_prepend_influences_downstream_decision(self):
        """A speaker that receives both the prepended and plain paths
        prefers the shorter one — traffic engineering end to end."""
        router = make_router()
        connect(router, "short", 65001, "10.0.1.1", "1.1.1.1")
        connect(router, "long", 65002, "10.0.1.2", "2.2.2.2")
        announce(router, "short", PathAttributes(
            as_path=AsPath.from_asns([65001, 300]),
            next_hop=IPv4Address.parse("10.0.1.1")))
        announce(router, "long", PathAttributes(
            as_path=AsPath.from_asns([65002, 65002, 65002, 300]),
            next_hop=IPv4Address.parse("10.0.1.2")))
        assert router.loc_rib.get(P1).peer_id == "short"
