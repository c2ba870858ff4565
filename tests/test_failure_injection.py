"""Failure injection: malformed input, session loss, and recovery while
the benchmark machinery is running."""

import pytest

from repro.benchmark.harness import SPEAKER1, SPEAKER1_ADDR, SPEAKER1_ASN, stream_packets
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.fsm import State
from repro.bgp.messages import (
    HEADER_LEN,
    MARKER,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.net.addr import IPv4Address, Prefix
from repro.systems import build_system
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder


def prepared_router(platform="pentium3"):
    router = build_system(platform)
    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
    return router


def corrupt_marker(packet: bytes) -> bytes:
    mutated = bytearray(packet)
    mutated[0] = 0x00
    return bytes(mutated)


def truncated_update() -> bytes:
    """A framed UPDATE whose withdrawn-length field overruns the body."""
    body = (999).to_bytes(2, "big") + b"\x00\x00"
    return MARKER + (HEADER_LEN + len(body)).to_bytes(2, "big") + b"\x02" + body


class TestMalformedInputMidStream:
    def test_bad_marker_tears_down_session(self):
        router = prepared_router()
        table = generate_table(50, seed=5)
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        packets = builder.announcements(table, 1)
        packets[25] = corrupt_marker(packets[25])
        stream_packets(router, SPEAKER1, packets, window=4)
        peer = router.speaker.peers[SPEAKER1]
        assert peer.fsm.state is State.IDLE
        # Session loss flushed every route learned so far.
        assert len(router.speaker.loc_rib) == 0
        assert len(router.fib) == 0

    def test_notification_sent_on_malformed_update(self):
        router = prepared_router()
        outbox = router.outboxes[SPEAKER1]
        sent_before = len(outbox)
        router.deliver(SPEAKER1, truncated_update())
        router.run_until_idle()
        new_messages = outbox[sent_before:]
        assert any(
            b and b[18] == 3  # NOTIFICATION type byte
            for b in new_messages
        )

    def test_bad_packet_does_not_crash_the_harness(self):
        router = prepared_router()
        router.deliver(SPEAKER1, b"\xde\xad\xbe\xef" * 8)
        router.run_until_idle()
        assert router.speaker.peers[SPEAKER1].fsm.state is State.IDLE

    def test_processing_continues_for_other_peer(self):
        """One peer's garbage must not disturb the other's session."""
        router = prepared_router()
        router.add_peer(
            PeerConfig("speaker2", 65102, IPv4Address.parse("10.255.2.1"),
                       ACCEPT_ALL, ACCEPT_ALL)
        )
        router.handshake("speaker2", 65102, IPv4Address.parse("10.255.2.1"))
        router.deliver(SPEAKER1, truncated_update())
        attrs = PathAttributes(
            as_path=AsPath.from_asns([65102, 300]),
            next_hop=IPv4Address.parse("10.255.2.1"),
        )
        good = UpdateMessage(attributes=attrs, nlri=(Prefix.parse("192.0.2.0/24"),))
        router.deliver("speaker2", good.encode())
        router.run_until_idle()
        assert router.speaker.peers[SPEAKER1].fsm.state is State.IDLE
        assert router.speaker.peers["speaker2"].established
        assert len(router.fib) == 1


class TestSessionLossAndRecovery:
    def test_notification_mid_benchmark_flushes_routes(self):
        router = prepared_router()
        table = generate_table(100, seed=6)
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        stream_packets(router, SPEAKER1, builder.announcements(table, 100), window=4)
        assert len(router.fib) == 100
        router.deliver(SPEAKER1, NotificationMessage(6, 4).encode())
        router.run_until_idle()
        assert len(router.fib) == 0
        assert len(router.speaker.peers[SPEAKER1].adj_rib_in) == 0

    def test_transport_failure_mid_stream_flushes_routes(self):
        # The peer's TCP connection dies partway through the table: no
        # NOTIFICATION arrives, yet every route learned so far goes.
        router = prepared_router()
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        packets = builder.announcements(generate_table(100, seed=8), 1)
        router.world.sim.schedule(
            0.2, lambda: router.speaker.transport_failed(SPEAKER1, now=router.now)
        )
        stream_packets(router, SPEAKER1, packets, window=4)
        assert 0 < router.transactions_completed < 100
        assert router.speaker.session_events()[-1] == (SPEAKER1, "down: transport failed")
        assert len(router.speaker.loc_rib) == 0
        assert len(router.fib) == 0

    def test_session_reestablishes_after_teardown(self):
        router = prepared_router()
        router.deliver(SPEAKER1, NotificationMessage(6, 4).encode())
        router.run_until_idle()
        assert router.speaker.peers[SPEAKER1].fsm.state is State.IDLE
        # Full re-handshake works on the same peer object.
        router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
        assert router.speaker.peers[SPEAKER1].established

    def test_routes_relearned_after_flap(self):
        router = prepared_router()
        table = generate_table(40, seed=7)
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        stream_packets(router, SPEAKER1, builder.announcements(table, 40), window=4)
        router.deliver(SPEAKER1, NotificationMessage(6, 4).encode())
        router.run_until_idle()
        assert len(router.fib) == 0
        router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
        router.reset_counters()
        stream_packets(router, SPEAKER1, builder.announcements(table, 40), window=4)
        assert len(router.fib) == 40

    def test_framer_state_cleared_on_teardown(self):
        """A partial message left in the framer must not poison the
        re-established session."""
        router = prepared_router()
        attrs = PathAttributes(
            as_path=AsPath.from_asns([SPEAKER1_ASN]), next_hop=SPEAKER1_ADDR
        )
        update = UpdateMessage(attributes=attrs, nlri=(Prefix.parse("192.0.2.0/24"),))
        wire = update.encode()
        # Deliver only half a message, then kill the session via the FSM.
        router.speaker.receive_bytes(SPEAKER1, wire[: len(wire) // 2])
        assert router.speaker.peers[SPEAKER1].framer.pending_bytes > 0
        router.speaker.peers[SPEAKER1].fsm.handle_message(NotificationMessage(6, 4))
        assert router.speaker.peers[SPEAKER1].framer.pending_bytes == 0
        # Re-establish and deliver the full message: processed cleanly.
        router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
        router.speaker.receive_bytes(SPEAKER1, wire)
        assert len(router.speaker.loc_rib) == 1


class TestHarnessGuards:
    def test_unknown_peer_delivery_raises(self):
        router = build_system("pentium3")
        router.deliver("ghost", b"data")
        with pytest.raises(KeyError):
            router.run_until_idle()

    def test_empty_packet_counts_but_does_nothing(self):
        router = prepared_router()
        router.deliver(SPEAKER1, b"")
        router.run_until_idle()
        assert router.speaker.peers[SPEAKER1].established
