"""Tests for the well-known communities (RFC 1997) on export."""

from repro.bgp.attributes import AsPath, PathAttributes, WellKnownCommunity
from repro.bgp.messages import KeepaliveMessage, OpenMessage, UpdateMessage
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address, Prefix

ROUTER_AS = 65000
S1, S2 = "s1", "s2"
S1_AS, S2_AS = 65001, 65002
S1_ADDR = IPv4Address.parse("10.0.1.1")
S2_ADDR = IPv4Address.parse("10.0.2.1")
SPECIFIC1 = Prefix.parse("10.1.0.0/16")


def make_router():
    return BgpSpeaker(
        SpeakerConfig(
            asn=ROUTER_AS,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.0.0.254"),
            hold_time=0.0,
        )
    )


def connect(router, peer_id, asn, addr, bgp_id, **kwargs):
    router.add_peer(PeerConfig(peer_id, asn, addr, **kwargs))
    outbox = []
    router.set_send_callback(peer_id, outbox.append)
    router.start_peer(peer_id)
    router.transport_connected(peer_id)
    router.receive_bytes(peer_id, OpenMessage(asn, 0, bgp_id).encode())
    router.receive_bytes(peer_id, KeepaliveMessage().encode())
    return outbox


def announce(router, peer_id, prefixes, path, next_hop, communities=()):
    attrs = PathAttributes(
        as_path=AsPath.from_asns(path), next_hop=next_hop, communities=communities
    )
    router.receive_bytes(
        peer_id, UpdateMessage(attributes=attrs, nlri=tuple(prefixes)).encode()
    )


class TestWellKnownCommunities:
    def test_no_export_blocks_ebgp_propagation(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [SPECIFIC1], [S1_AS], S1_ADDR,
                 communities=(int(WellKnownCommunity.NO_EXPORT),))
        assert len(router.loc_rib) == 1  # still used locally
        assert router.flush_updates(S2) == []

    def test_no_export_allows_ibgp_propagation(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, "internal", ROUTER_AS, IPv4Address.parse("10.1.0.9"),
                IPv4Address.parse("3.3.3.3"))
        announce(router, S1, [SPECIFIC1], [S1_AS], S1_ADDR,
                 communities=(int(WellKnownCommunity.NO_EXPORT),))
        assert router.flush_updates("internal")  # iBGP still receives it

    def test_no_advertise_blocks_everyone(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, "internal", ROUTER_AS, IPv4Address.parse("10.1.0.9"),
                IPv4Address.parse("3.3.3.3"))
        announce(router, S1, [SPECIFIC1], [S1_AS], S1_ADDR,
                 communities=(int(WellKnownCommunity.NO_ADVERTISE),))
        assert len(router.loc_rib) == 1
        assert router.flush_updates("internal") == []

    def test_plain_communities_do_not_block(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [SPECIFIC1], [S1_AS], S1_ADDR,
                 communities=(ROUTER_AS << 16 | 100,))
        assert router.flush_updates(S2)

