"""Integration tests: flap damping and MRAI wired into the speaker."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.damping import DampingConfig
from repro.bgp.messages import KeepaliveMessage, OpenMessage, UpdateMessage, decode_message
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.forwarding.fib import Fib
from repro.net.addr import IPv4Address, Prefix
from repro.topo.wiring import establish_session

S1, S2 = "s1", "s2"
S1_AS, S2_AS = 65001, 65002
S1_ADDR = IPv4Address.parse("10.0.1.1")
S2_ADDR = IPv4Address.parse("10.0.2.1")
P1 = Prefix.parse("192.0.2.0/24")

DAMPING = DampingConfig(half_life=100.0, max_suppress_time=600.0)


def make_router(fib=None):
    return BgpSpeaker(
        SpeakerConfig(
            asn=65000,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.0.0.254"),
            hold_time=0.0,
        ),
        fib=fib,
    )


def connect(router, peer_id, asn, addr, bgp_id, **peer_kwargs):
    router.add_peer(PeerConfig(peer_id, asn, addr, **peer_kwargs))
    outbox = []
    router.set_send_callback(peer_id, outbox.append)
    router.start_peer(peer_id)
    router.transport_connected(peer_id)
    router.receive_bytes(peer_id, OpenMessage(asn, 0, bgp_id).encode())
    router.receive_bytes(peer_id, KeepaliveMessage().encode())
    return outbox


def announce(router, peer_id, prefixes, path, next_hop, now=0.0):
    attrs = PathAttributes(as_path=AsPath.from_asns(path), next_hop=next_hop)
    router.receive_bytes(
        peer_id, UpdateMessage(attributes=attrs, nlri=tuple(prefixes)).encode(), now=now
    )


def withdraw(router, peer_id, prefixes, now=0.0):
    router.receive_bytes(
        peer_id, UpdateMessage(withdrawn=tuple(prefixes)).encode(), now=now
    )


class TestDampingInSpeaker:
    def flap(self, router, times):
        for i in range(times):
            announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=float(2 * i))
            withdraw(router, S1, [P1], now=float(2 * i + 1))

    def test_flapping_route_becomes_suppressed(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"), damping=DAMPING)
        self.flap(router, times=3)
        # Route is withdrawn *and* suppressed: a fresh announcement must
        # not install it.
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=7.0)
        assert len(router.loc_rib) == 0
        assert len(fib) == 0
        assert router.peers[S1].damper.suppressions >= 1

    def test_suppressed_route_reused_after_decay(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"), damping=DAMPING)
        self.flap(router, times=3)
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=7.0)
        assert len(router.loc_rib) == 0
        # Long after the storm the penalty decays below reuse and the
        # route installs again.
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=2000.0)
        assert len(router.loc_rib) == 1
        assert fib.next_hop_for(P1) == S1_ADDR

    def test_stable_route_never_suppressed(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"), damping=DAMPING)
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=0.0)
        assert len(router.loc_rib) == 1

    def test_damping_per_peer(self):
        """A flap storm from one peer must not damp the other's route."""
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"), damping=DAMPING)
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"), damping=DAMPING)
        self.flap(router, times=3)
        announce(router, S2, [P1], [S2_AS, 300], S2_ADDR, now=8.0)
        assert len(router.loc_rib) == 1
        assert router.loc_rib.get(P1).peer_id == S2

    def test_no_damping_by_default(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        assert router.peers[S1].damper is None
        self.flap(router, times=10)
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=25.0)
        assert len(router.loc_rib) == 1


class TestMraiInSpeaker:
    def test_first_export_passes_rapid_changes_withheld(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        out2 = connect(
            router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"), mrai_interval=30.0
        )
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=0.0)
        packets = router.flush_updates(S2)
        assert len(packets) == 1  # first advertisement passes

        # A rapid change (better path from S1) is withheld.
        announce(router, S1, [P1], [S1_AS], S1_ADDR, now=5.0)
        assert router.flush_updates(S2) == []
        assert len(router.peers[S2].mrai) == 1

    def test_release_mrai_emits_newest_state(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(
            router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"), mrai_interval=30.0
        )
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=0.0)
        router.flush_updates(S2)
        announce(router, S1, [P1], [S1_AS], S1_ADDR, now=5.0)       # withheld
        announce(router, S1, [P1], [S1_AS, 301], S1_ADDR, now=6.0)  # coalesces

        assert router.release_mrai(S2, now=31.0) == 1
        packets = router.flush_updates(S2)
        assert len(packets) == 1
        update = decode_message(packets[0])
        # The newest state (path via 301, re-exported with our AS).
        assert update.attributes.as_path.all_asns() == (65000, S1_AS, 301)

    def test_withheld_withdraw_released(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(
            router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"), mrai_interval=30.0
        )
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=0.0)
        router.flush_updates(S2)
        withdraw(router, S1, [P1], now=5.0)
        assert router.flush_updates(S2) == []
        router.release_mrai(S2, now=31.0)
        packets = router.flush_updates(S2)
        assert decode_message(packets[0]).withdrawn == (P1,)

    def test_release_on_peer_without_mrai_is_noop(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        assert router.release_mrai(S1, now=100.0) == 0

    def test_mrai_batches_flap_storm(self):
        """A storm of N changes inside one interval emits one update —
        the paper's 'aggregate update messages' implication realised by
        the protocol's own mechanism."""
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(
            router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"), mrai_interval=30.0
        )
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=0.0)
        first = router.flush_updates(S2)
        assert len(first) == 1
        for i in range(10):
            announce(router, S1, [P1], [S1_AS, 300 + i + 1], S1_ADDR, now=1.0 + i)
        assert router.flush_updates(S2) == []
        router.release_mrai(S2, now=31.0)
        assert len(router.flush_updates(S2)) == 1
        assert router.peers[S2].mrai.coalesced >= 9


class TestMraiSchedule:
    """The speaker publishes which peers' earliest release moved; the
    owner of the clock schedules exactly that."""

    def make(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        for name, octet in (("a", 3), ("b", 4), ("c", 5)):
            connect(
                router,
                name,
                65000 + octet,
                IPv4Address.parse(f"10.0.{octet}.1"),
                IPv4Address.parse(f"{octet}.{octet}.{octet}.{octet}"),
                mrai_interval=30.0,
            )
        return router

    def test_nothing_withheld_nothing_reported(self):
        router = self.make()
        assert router.take_mrai_schedule() == []
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=0.0)
        router.flush_pending()
        # First advertisements pass every gate: no deadline was born.
        assert router.take_mrai_schedule() == []

    def test_withheld_change_reports_its_deadline_in_peers_order(self):
        router = self.make()
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=1.0)
        router.flush_pending()
        withdraw(router, S1, [P1], now=5.0)
        assert router.take_mrai_schedule() == [("a", 31.0), ("b", 31.0), ("c", 31.0)]
        # Drained: the same deadline is not reported twice.
        assert router.take_mrai_schedule() == []

    def test_release_reports_the_released_peer_only(self):
        router = self.make()
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=1.0)
        router.flush_pending()
        withdraw(router, S1, [P1], now=5.0)
        router.take_mrai_schedule()
        assert router.release_mrai("b", now=31.0) == 1
        assert router.take_mrai_schedule() == [("b", None)]

    def test_reported_deadline_always_releases(self):
        router = self.make()
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR, now=0.1)
        router.flush_pending()
        withdraw(router, S1, [P1], now=0.3)
        for peer_id, due in router.take_mrai_schedule():
            assert router.release_mrai(peer_id, now=due) == 1


class TestSessionDownResetsOutbox:
    """A session that goes down takes its outbox with it: nothing is
    emitted onto the dead session, its timer is cancelled, and the next
    session gets the full initial transfer (RFC 4271 §9.4)."""

    def make(self):
        router = make_router()
        out = connect(
            router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"), mrai_interval=30.0
        )
        return router, out

    def withhold_one(self, router):
        router.originate(P1)
        router.flush_pending()
        router._now = 5.0
        router.withdraw_local(P1)  # inside the interval: withheld
        assert len(router.peers[S2].mrai) == 1

    def test_no_update_onto_a_dead_session_after_release(self):
        router, out = self.make()
        self.withhold_one(router)
        router.transport_failed(S2, now=6.0)
        assert not router.peers[S2].established
        del out[:]
        # A release that fires anyway finds nothing to send.
        assert router.release_mrai(S2, now=31.0) == 0
        assert router.flush_updates(S2) == []
        assert out == []

    def test_session_down_reports_no_release(self):
        router, out = self.make()
        self.withhold_one(router)
        assert router.take_mrai_schedule() == [(S2, 30.0)]
        router.transport_failed(S2, now=6.0)
        # The node is told to cancel the dead peer's release event.
        assert router.take_mrai_schedule() == [(S2, None)]

    def test_reestablished_session_gets_the_full_table(self):
        router, out = self.make()
        other = Prefix.parse("198.51.100.0/24")
        router.originate(P1)
        router.originate(other)
        assert len(router.flush_pending()) == 1  # one UPDATE, two NLRI
        router.transport_failed(S2, now=1.0)
        assert len(router.peers[S2].adj_rib_out) == 0
        establish_session(router, S2, S2_AS, IPv4Address.parse("2.2.2.2"), now=2.0)
        packets = router.flush_pending()
        announced = sorted(
            prefix for wire in packets for prefix in decode_message(wire).nlri
        )
        assert announced == sorted([P1, other])

    def test_pending_delta_of_a_dead_session_is_dropped(self):
        router, out = self.make()
        router.originate(P1)  # staged, never flushed
        router.transport_failed(S2, now=1.0)
        assert not router.peers[S2].adj_rib_out.has_pending()
        assert router.flush_updates(S2) == []

    def test_remove_peer_reports_no_release(self):
        router, out = self.make()
        self.withhold_one(router)
        router.take_mrai_schedule()
        router.remove_peer(S2)
        assert router.take_mrai_schedule() == [(S2, None)]


class TestPeerInfoCache:
    def test_info_is_built_once_per_session_and_tracks_the_open(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        peer = router.peers[S1]
        assert peer.info() is peer.info()
        assert peer.info().bgp_identifier == IPv4Address.parse("1.1.1.1")
        router.transport_failed(S1, now=1.0)
        establish_session(router, S1, S1_AS, IPv4Address.parse("1.1.1.9"), now=2.0)
        assert peer.info().bgp_identifier == IPv4Address.parse("1.1.1.9")
