"""Tests for the multi-peer load driver and latency collection."""

import pytest

from repro.benchmark.harness import (
    SPEAKER1,
    SPEAKER1_ADDR,
    SPEAKER1_ASN,
    run_multipeer_startup,
    run_scenario,
    stream_interleaved,
    stream_packets,
)
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.systems import build_system
from repro.telemetry import Telemetry
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

SIZE = 400


class TestMultiPeerDisjoint:
    def test_all_shards_installed(self):
        router = build_system("pentium3")
        result = run_multipeer_startup(router, peer_count=4, table_size=SIZE)
        assert result.transactions == SIZE
        assert result.fib_size_after == SIZE
        assert len(router.speaker.loc_rib) == SIZE

    def test_single_peer_matches_scenario1(self):
        multi = run_multipeer_startup(
            build_system("pentium3"), peer_count=1, table_size=SIZE
        )
        single = run_scenario(build_system("pentium3"), 1, table_size=SIZE)
        assert multi.transactions_per_second == pytest.approx(
            single.transactions_per_second, rel=0.05
        )

    def test_more_peers_cost_export_work(self):
        """With several established peers every learned route is
        re-advertised to the others, so per-prefix work rises — the
        multi-neighbour reality the paper's two-speaker setup isolates
        away in Phase 1."""
        one = run_multipeer_startup(build_system("pentium3"), 1, table_size=SIZE)
        four = run_multipeer_startup(build_system("pentium3"), 4, table_size=SIZE)
        assert four.transactions_per_second < 0.7 * one.transactions_per_second

    def test_peer_count_validation(self):
        with pytest.raises(ValueError):
            run_multipeer_startup(build_system("pentium3"), peer_count=0)

    def test_routes_spread_across_peers(self):
        router = build_system("pentium3")
        run_multipeer_startup(router, peer_count=4, table_size=SIZE)
        sources = {route.peer_id for route in router.speaker.loc_rib.routes()}
        assert sources == {f"peer{i}" for i in range(4)}


class TestMultiPeerOverlapping:
    def test_every_copy_processed_one_installed(self):
        router = build_system("pentium3")
        result = run_multipeer_startup(
            router, peer_count=3, table_size=200, disjoint=False
        )
        assert result.transactions == 600  # every copy is a transaction
        assert result.fib_size_after == 200

    def test_adj_ribs_hold_all_copies(self):
        router = build_system("pentium3")
        run_multipeer_startup(router, peer_count=3, table_size=150, disjoint=False)
        for index in range(3):
            assert len(router.speaker.peers[f"peer{index}"].adj_rib_in) == 150


class TestStreamInterleaved:
    def test_unequal_feed_lengths_drain_completely(self):
        router = build_system("pentium3")
        router.add_peer(PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR,
                                   ACCEPT_ALL, ACCEPT_ALL))
        router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        table = generate_table(90, seed=3)
        long_feed = builder.announcements(table.entries[:60], 1)
        short_feed = builder.announcements(table.entries[60:], 1)
        stream_interleaved(
            router, [(SPEAKER1, long_feed), (SPEAKER1, short_feed)], window=4
        )
        assert len(router.speaker.loc_rib) == 90


class TestLatencyCollection:
    """Per-packet latency is the duration of each ``packet`` span of an
    attached :class:`Telemetry`: arrival to completion."""

    def prepared(self, platform="pentium3"):
        router = build_system(platform)
        router.add_peer(PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR,
                                   ACCEPT_ALL, ACCEPT_ALL))
        router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
        return router, Telemetry().attach(router)

    @staticmethod
    def latencies(telemetry):
        return [span.duration for span in telemetry.tracer.spans("packet")]

    def test_latencies_recorded_per_packet(self):
        router, telemetry = self.prepared()
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        table = generate_table(50, seed=2)
        stream_packets(router, SPEAKER1, builder.announcements(table, 1), 4)
        latencies = self.latencies(telemetry)
        assert len(latencies) == 50
        assert all(latency > 0 for latency in latencies)

    def test_latency_near_per_prefix_cost_when_unloaded(self):
        router, telemetry = self.prepared()
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        table = generate_table(20, seed=2)
        stream_packets(router, SPEAKER1, builder.announcements(table, 1), 1)
        # Window 1: each packet is alone in the router; latency equals
        # the scenario-1 per-prefix cost (~5.4 ms).
        for latency in self.latencies(telemetry):
            assert latency == pytest.approx(5.37e-3, rel=0.05)

    def test_latency_grows_under_cross_traffic(self):
        def mean_latency(mbps):
            router, telemetry = self.prepared()
            router.set_cross_traffic(mbps)
            builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
            table = generate_table(30, seed=2)
            stream_packets(router, SPEAKER1, builder.announcements(table, 1), 1)
            values = self.latencies(telemetry)
            return sum(values) / len(values)

        assert mean_latency(300.0) > 1.3 * mean_latency(0.0)

    def test_cisco_latency_includes_pacing_queue(self):
        router, telemetry = self.prepared("cisco")
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        table = generate_table(10, seed=2)
        # Deliver all at once: the i-th packet waits i pacing intervals,
        # and its span starts at arrival, so the wait is included.
        for packet in builder.announcements(table, 1):
            router.deliver(SPEAKER1, packet)
        router.run_until_idle()
        latencies = self.latencies(telemetry)
        assert len(latencies) == 10
        pacing = router.costs.pacing_interval
        assert latencies[-1] == pytest.approx(9 * pacing, rel=0.1)
