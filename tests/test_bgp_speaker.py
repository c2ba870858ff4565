"""Integration-level unit tests for the full BGP speaker."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.fsm import State
from repro.bgp.messages import (
    MAX_MESSAGE_LEN,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    OversizeAttributesError,
    UpdateMessage,
    decode_message,
)
from repro.bgp.policy import Action, Match, Policy, PolicyResult, Rule
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.forwarding.fib import Fib
from repro.net.addr import IPv4Address, Prefix

ROUTER_AS = 65000
S1, S2 = "s1", "s2"
S1_AS, S2_AS = 65001, 65002
S1_ADDR = IPv4Address.parse("10.0.1.1")
S2_ADDR = IPv4Address.parse("10.0.2.1")
P1 = Prefix.parse("192.0.2.0/24")
P2 = Prefix.parse("198.51.100.0/24")


def make_router(fib=None, **peer_policy):
    router = BgpSpeaker(
        SpeakerConfig(
            asn=ROUTER_AS,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.0.0.254"),
            hold_time=0.0,
        ),
        fib=fib,
    )
    return router


def connect(router, peer_id, asn, addr, bgp_id, **kwargs):
    router.add_peer(PeerConfig(peer_id, asn, addr, **kwargs))
    outbox = []
    router.set_send_callback(peer_id, outbox.append)
    router.start_peer(peer_id)
    router.transport_connected(peer_id)
    router.receive_bytes(peer_id, OpenMessage(asn, 0, bgp_id).encode())
    router.receive_bytes(peer_id, KeepaliveMessage().encode())
    assert router.peers[peer_id].established
    return outbox


def announce(router, peer_id, prefixes, path, next_hop):
    attrs = PathAttributes(as_path=AsPath.from_asns(path), next_hop=next_hop)
    update = UpdateMessage(attributes=attrs, nlri=tuple(prefixes))
    router.receive_bytes(peer_id, update.encode())


def withdraw(router, peer_id, prefixes):
    router.receive_bytes(peer_id, UpdateMessage(withdrawn=tuple(prefixes)).encode())


class TestSessionLifecycle:
    def test_handshake_establishes(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        assert router.session_events() == [(S1, "up")]

    def test_duplicate_peer_rejected(self):
        router = make_router()
        router.add_peer(PeerConfig(S1, S1_AS, S1_ADDR))
        with pytest.raises(ValueError):
            router.add_peer(PeerConfig(S1, S1_AS, S1_ADDR))

    def test_notification_tears_session_and_flushes_routes(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        assert len(fib) == 1
        router.receive_bytes(S1, NotificationMessage(6, 2).encode())
        assert router.peers[S1].fsm.state is State.IDLE
        assert len(fib) == 0
        assert len(router.loc_rib) == 0

    def test_remove_peer_flushes(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        router.remove_peer(S1)
        assert len(fib) == 0
        assert S1 not in router.peers


class TestAnnouncementProcessing:
    def test_announce_installs_route(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1, P2], [S1_AS, 300], S1_ADDR)
        assert len(router.loc_rib) == 2
        assert fib.next_hop_for(P1) == S1_ADDR
        assert router.work.prefixes_announced == 2
        assert router.work.fib_adds == 2

    def test_withdraw_removes_route(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        withdraw(router, S1, [P1])
        assert len(router.loc_rib) == 0
        assert len(fib) == 0
        assert router.work.prefixes_withdrawn == 1
        assert router.work.fib_deletes == 1

    def test_withdraw_unknown_prefix_harmless(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        withdraw(router, S1, [P1])
        assert len(router.loc_rib) == 0

    def test_longer_path_does_not_replace(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR)
        work_before = router.work.snapshot()
        announce(router, S2, [P1], [S2_AS, 300, 301, 302], S2_ADDR)
        assert router.loc_rib.get(P1).peer_id == S1
        assert fib.next_hop_for(P1) == S1_ADDR
        assert router.work.fib_replaces == work_before.fib_replaces  # unchanged

    def test_shorter_path_replaces_and_updates_fib(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [P1], [S1_AS, 300, 301], S1_ADDR)
        announce(router, S2, [P1], [S2_AS, 300], S2_ADDR)
        assert router.loc_rib.get(P1).peer_id == S2
        assert fib.next_hop_for(P1) == S2_ADDR
        assert router.work.fib_replaces == 1

    def test_loop_detection_drops_routes_with_own_as(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1], [S1_AS, ROUTER_AS, 300], S1_ADDR)
        assert len(router.loc_rib) == 0
        # Still counted as processed transactions.
        assert router.work.prefixes_announced == 1

    def test_identical_reannouncement_is_cheap(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        decisions_before = router.work.decisions
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        assert router.work.decisions == decisions_before  # no re-decision

    def test_withdraw_falls_back_to_second_best(self):
        fib = Fib()
        router = make_router(fib=fib)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR)
        announce(router, S2, [P1], [S2_AS, 300, 301], S2_ADDR)
        withdraw(router, S1, [P1])
        assert router.loc_rib.get(P1).peer_id == S2
        assert fib.next_hop_for(P1) == S2_ADDR

    def test_malformed_update_tears_down_session(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        # UPDATE with NLRI but empty attributes: missing mandatory.
        body = (0).to_bytes(2, "big") + (0).to_bytes(2, "big") + b"\x18\xc0\x00\x02"
        from repro.bgp.messages import MARKER
        wire = MARKER + (19 + len(body)).to_bytes(2, "big") + b"\x02" + body
        router.receive_bytes(S1, wire)
        assert router.peers[S1].fsm.state is State.IDLE


class TestExportPath:
    def test_route_propagates_to_other_peer(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        out2 = connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR)
        handshake_msgs = len(out2)
        packets = router.flush_updates(S2)
        assert len(packets) == 1
        update = decode_message(packets[0])
        assert update.nlri == (P1,)
        # eBGP export: our AS prepended, next hop rewritten, no LOCAL_PREF.
        assert update.attributes.as_path.all_asns() == (ROUTER_AS, S1_AS, 300)
        assert update.attributes.next_hop == router.config.local_address
        assert update.attributes.local_pref is None
        assert len(out2) == handshake_msgs + 1

    def test_no_export_back_to_learned_peer(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        assert router.flush_updates(S1) == []

    def test_withdraw_propagates(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        router.flush_updates(S2)
        withdraw(router, S1, [P1])
        packets = router.flush_updates(S2)
        assert len(packets) == 1
        assert decode_message(packets[0]).withdrawn == (P1,)

    def test_session_up_stages_existing_table(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1, P2], [S1_AS], S1_ADDR)
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        packets = router.flush_updates(S2)
        announced = set()
        for packet in packets:
            announced.update(decode_message(packet).nlri)
        assert announced == {P1, P2}

    def test_flush_packing_groups_by_attributes(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        announce(router, S1, [P1, P2], [S1_AS, 300], S1_ADDR)
        packets = router.flush_updates(S2, max_prefixes=500)
        assert len(packets) == 1  # same attributes -> one UPDATE
        assert set(decode_message(packets[0]).nlri) == {P1, P2}

    def test_flush_respects_max_prefixes(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(10)]
        announce(router, S1, prefixes, [S1_AS], S1_ADDR)
        packets = router.flush_updates(S2, max_prefixes=3)
        sizes = [len(decode_message(p).nlri) for p in packets]
        assert sorted(sizes, reverse=True) == [3, 3, 3, 1]


class TestMessageSizeLimit:
    """flush_updates keeps every UPDATE within RFC 4271's 4096 octets, and
    never loses a delta it cannot send."""

    def test_packing_cuts_by_octets_as_well_as_by_count(self):
        # 500 /24s with a 2 400-octet COMMUNITIES attribute made one
        # 4 445-octet UPDATE: _frame raised after take_pending() had
        # emptied the delta, so the peer never heard of the 500 routes.
        router = make_router()
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        attrs = PathAttributes(communities=tuple(range(1, 601)))
        prefixes = [Prefix((100 << 24) | (i << 8), 24) for i in range(500)]
        for prefix in prefixes:
            router.originate(prefix, attrs)
        packets = router.flush_updates(S2)
        assert max(len(packet) for packet in packets) <= MAX_MESSAGE_LEN
        sent = [p for packet in packets for p in decode_message(packet).nlri]
        assert sent == prefixes
        assert len(packets) == 2
        assert not router.peers[S2].adj_rib_out.has_pending()

    def test_withdrawals_above_the_packing_limit_fit_too(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        prefixes = [Prefix((100 << 24) | i, 32) for i in range(1000)]
        announce(router, S1, prefixes[:500], [S1_AS], S1_ADDR)
        announce(router, S1, prefixes[500:], [S1_AS], S1_ADDR)
        router.flush_updates(S2, max_prefixes=1000)
        withdraw(router, S1, prefixes[:500])
        withdraw(router, S1, prefixes[500:])
        packets = router.flush_updates(S2, max_prefixes=1000)
        assert max(len(packet) for packet in packets) <= MAX_MESSAGE_LEN
        assert [p for packet in packets for p in decode_message(packet).withdrawn] == prefixes

    @pytest.mark.parametrize("others", [0, 1])
    def test_attributes_no_update_can_carry_raise_before_the_delta_is_taken(self, others):
        router = make_router()
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        router.originate(P1, PathAttributes(communities=tuple(range(1, 1021))))
        if others:
            router.originate(P2)
        for _attempt in range(2):
            with pytest.raises(OversizeAttributesError, match=f"no room for {P1}"):
                router.flush_updates(S2)
            assert router.peers[S2].adj_rib_out.pending_counts() == (1 + others, 0)


class TestSessionLossOrder:
    """Session loss re-decides the lost peer's prefixes in ascending
    ``(network, length)`` order, not in the order they arrived: the
    UPDATEs a third neighbour sees must not depend on arrival order."""

    PREFIXES = [Prefix.parse(f"10.{i}.0.0/16") for i in range(8)]

    @staticmethod
    def backup_path(index):
        return [S2_AS, 64600 + index]  # distinct per prefix: one UPDATE each

    def test_reroute_updates_follow_prefix_order(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        connect(router, S2, S2_AS, S2_ADDR, IPv4Address.parse("2.2.2.2"))
        connect(router, "c", 65003, IPv4Address.parse("10.0.3.1"), IPv4Address.parse("3.3.3.3"))
        for prefix in reversed(self.PREFIXES):
            announce(router, S1, [prefix], [S1_AS], S1_ADDR)
        for index in reversed(range(len(self.PREFIXES))):
            announce(router, S2, [self.PREFIXES[index]], self.backup_path(index), S2_ADDR)
        router.flush_pending()

        router.receive_bytes(S1, NotificationMessage(6, 2).encode())
        rerouted = router.flush_updates("c")

        expected = [
            UpdateMessage(
                attributes=PathAttributes(
                    as_path=AsPath.from_asns([ROUTER_AS, *self.backup_path(index)]),
                    next_hop=router.config.local_address,
                ),
                nlri=(prefix,),
            ).encode()
            for index, prefix in enumerate(self.PREFIXES)
        ]
        assert rerouted == expected


class TestSessionUpOrder:
    """The initial transfer to a new neighbour (RFC 4271 §9.4) stages the
    Loc-RIB in ascending ``(network, length)`` order, not in the order
    the routes were learned."""

    PREFIXES = TestSessionLossOrder.PREFIXES

    def test_initial_transfer_follows_prefix_order(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        for index in reversed(range(len(self.PREFIXES))):
            # Distinct paths: one UPDATE per prefix.
            announce(router, S1, [self.PREFIXES[index]], [S1_AS, 64600 + index], S1_ADDR)

        connect(router, "c", 65003, IPv4Address.parse("10.0.3.1"), IPv4Address.parse("3.3.3.3"))
        transferred = router.flush_updates("c")

        expected = [
            UpdateMessage(
                attributes=PathAttributes(
                    as_path=AsPath.from_asns([ROUTER_AS, S1_AS, 64600 + index]),
                    next_hop=router.config.local_address,
                ),
                nlri=(prefix,),
            ).encode()
            for index, prefix in enumerate(self.PREFIXES)
        ]
        assert transferred == expected


class TestOutbox:
    """The speaker knows which peers it staged to: ``flush_pending``
    visits those and nobody else, in ``peers`` order."""

    NEIGHBOURS = [("a", 65011), ("b", 65012), ("c", 65013)]

    def make(self, **peer_kwargs):
        router = make_router()
        log = []
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        for index, (peer_id, asn) in enumerate(self.NEIGHBOURS):
            connect(
                router, peer_id, asn, IPv4Address.parse(f"10.0.{index + 3}.1"),
                IPv4Address.parse(f"3.3.3.{index + 1}"), **peer_kwargs,
            )
            router.set_send_callback(
                peer_id, lambda wire, peer_id=peer_id: log.append((peer_id, wire))
            )
        return router, log

    def count_flushes(self, router, monkeypatch):
        calls = []
        flush_updates = router.flush_updates

        def counted(peer_id, max_prefixes=None):
            calls.append(peer_id)
            return flush_updates(peer_id, max_prefixes)

        monkeypatch.setattr(router, "flush_updates", counted)
        return calls

    def test_reverse_staging_still_emits_in_peers_order(self):
        router, log = self.make()
        attrs = PathAttributes(as_path=AsPath.from_asns([ROUTER_AS]), next_hop=S1_ADDR)
        for peer_id in ("c", "b", "a"):
            router._stage_one(router.peers[peer_id], P1, attrs)
        packets = router.flush_pending()
        assert [peer_id for peer_id, _wire in log] == ["a", "b", "c"]
        assert packets == [wire for _peer_id, wire in log]

    def test_matches_a_walk_over_every_peer(self):
        walked, walked_log = self.make()
        flushed, flushed_log = self.make()
        for router in (walked, flushed):
            announce(router, S1, [P1, P2], [S1_AS, 300], S1_ADDR)
        for peer_id in walked.peers:
            walked.flush_updates(peer_id, max_prefixes=1)
        flushed.flush_pending(max_prefixes=1)
        assert flushed_log == walked_log
        assert len(flushed_log) == 6

    def test_nothing_staged_flushes_nobody(self, monkeypatch):
        router, log = self.make()
        calls = self.count_flushes(router, monkeypatch)
        assert router.flush_pending() == []
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        router.flush_pending()
        assert calls == ["a", "b", "c"]  # not S1: nothing was staged to it
        assert router.flush_pending() == []
        assert calls == ["a", "b", "c"]
        assert len(log) == 3

    def test_peer_removed_while_dirty_is_not_resurrected(self):
        router, log = self.make()
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        router.remove_peer("b")
        del log[:]  # the Cease NOTIFICATION remove_peer sent
        router.flush_pending()
        assert [peer_id for peer_id, _wire in log] == ["a", "c"]
        assert "b" not in router.peers

    def test_session_dropped_while_dirty_is_not_flushed(self):
        router, log = self.make()
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        router.receive_bytes("b", NotificationMessage(6, 2).encode())
        assert not router.peers["b"].established
        router.flush_pending()
        assert [peer_id for peer_id, _wire in log] == ["a", "c"]

    def test_mrai_release_marks_the_peer_for_the_next_flush(self):
        router, log = self.make(mrai_interval=30.0)
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR)
        router.flush_pending()
        del log[:]
        router.receive_bytes(
            S1, UpdateMessage(withdrawn=(P1,)).encode(), now=1.0
        )  # inside every gate's interval: withheld
        assert router.flush_pending() == []
        assert router.release_mrai("b", now=31.0) == 1
        packets = router.flush_pending()
        assert [peer_id for peer_id, _wire in log] == ["b"]
        assert decode_message(packets[0]).withdrawn == (P1,)


class TestPolicies:
    def test_import_reject_blocks_route(self):
        reject_666 = Policy([Rule(Match(as_in_path=666), PolicyResult.REJECT)])
        router = make_router()
        router.add_peer(PeerConfig(S1, S1_AS, S1_ADDR, import_policy=reject_666))
        router.set_send_callback(S1, lambda data: None)
        router.start_peer(S1)
        router.transport_connected(S1)
        router.receive_bytes(S1, OpenMessage(S1_AS, 0, IPv4Address.parse("1.1.1.1")).encode())
        router.receive_bytes(S1, KeepaliveMessage().encode())
        announce(router, S1, [P1], [S1_AS, 666], S1_ADDR)
        assert len(router.loc_rib) == 0

    def test_import_reject_withdraws_previously_accepted(self):
        flip = Policy([Rule(Match(as_in_path=666), PolicyResult.REJECT)])
        router = make_router()
        router.add_peer(PeerConfig(S1, S1_AS, S1_ADDR, import_policy=flip))
        router.set_send_callback(S1, lambda data: None)
        router.start_peer(S1)
        router.transport_connected(S1)
        router.receive_bytes(S1, OpenMessage(S1_AS, 0, IPv4Address.parse("1.1.1.1")).encode())
        router.receive_bytes(S1, KeepaliveMessage().encode())
        announce(router, S1, [P1], [S1_AS, 300], S1_ADDR)
        assert len(router.loc_rib) == 1
        # Re-announce through the rejecting path: implicit withdraw.
        announce(router, S1, [P1], [S1_AS, 666], S1_ADDR)
        assert len(router.loc_rib) == 0

    def test_import_action_modifies_attributes(self):
        prefer = Policy([Rule(Match(), PolicyResult.ACCEPT, Action(set_local_pref=300))])
        router = make_router()
        router.add_peer(PeerConfig(S1, S1_AS, S1_ADDR, import_policy=prefer))
        router.set_send_callback(S1, lambda data: None)
        router.start_peer(S1)
        router.transport_connected(S1)
        router.receive_bytes(S1, OpenMessage(S1_AS, 0, IPv4Address.parse("1.1.1.1")).encode())
        router.receive_bytes(S1, KeepaliveMessage().encode())
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        assert router.loc_rib.get(P1).attributes.local_pref == 300

    def test_export_reject_blocks_advertisement(self):
        reject_all_out = Policy(default=PolicyResult.REJECT)
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        router.add_peer(PeerConfig(S2, S2_AS, S2_ADDR, export_policy=reject_all_out))
        router.set_send_callback(S2, lambda data: None)
        router.start_peer(S2)
        router.transport_connected(S2)
        router.receive_bytes(S2, OpenMessage(S2_AS, 0, IPv4Address.parse("2.2.2.2")).encode())
        router.receive_bytes(S2, KeepaliveMessage().encode())
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        assert router.flush_updates(S2) == []


class TestLocalOrigination:
    def test_originate_and_withdraw(self):
        fib = Fib()
        router = make_router(fib=fib)
        router.originate(P1)
        assert len(router.loc_rib) == 1
        assert fib.next_hop_for(P1) == router.config.local_address
        router.withdraw_local(P1)
        assert len(router.loc_rib) == 0

    def test_local_route_competes_with_learned(self):
        router = make_router()
        router.originate(P1)  # empty AS path: length 0, wins on path length
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        assert router.loc_rib.get(P1).peer_id == "<local>"

    def test_local_route_advertised_on_session_up(self):
        router = make_router()
        router.originate(P1)
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        packets = router.flush_updates(S1)
        assert len(packets) == 1
        update = decode_message(packets[0])
        assert update.nlri == (P1,)
        assert update.attributes.as_path.all_asns() == (ROUTER_AS,)


class TestWorkAccounting:
    def test_take_work_resets(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        work = router.take_work()
        assert work.transactions == 1
        assert router.work.transactions == 0

    def test_transactions_counts_both_directions(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        announce(router, S1, [P1, P2], [S1_AS], S1_ADDR)
        withdraw(router, S1, [P1])
        assert router.work.transactions == 3

    def test_bytes_accounting(self):
        router = make_router()
        connect(router, S1, S1_AS, S1_ADDR, IPv4Address.parse("1.1.1.1"))
        before = router.work.bytes_received
        announce(router, S1, [P1], [S1_AS], S1_ADDR)
        assert router.work.bytes_received > before

    def test_worklog_add(self):
        from repro.bgp.speaker import WorkLog

        a = WorkLog(prefixes_announced=2, fib_adds=1)
        b = WorkLog(prefixes_announced=3, fib_deletes=2)
        a.add(b)
        assert a.prefixes_announced == 5
        assert a.fib_adds == 1
        assert a.fib_deletes == 2
        assert a.transactions == 5
        assert a.fib_changes == 3

    def test_worklog_snapshot_is_an_independent_copy(self):
        from dataclasses import fields

        from repro.bgp.speaker import WorkLog

        # A distinct value per field, so a transposed position shows.
        log = WorkLog(*range(1, len(fields(WorkLog)) + 1))
        assert log.counts() == tuple(getattr(log, f.name) for f in fields(WorkLog))
        copy = log.snapshot()
        assert copy == log and copy is not log
        log.prefixes_announced += 7
        assert copy.prefixes_announced == 5
