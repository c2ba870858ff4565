"""Stall-proofing of the benchmark harness: window accounting under
exceptions, the deadlock check, and the virtual-time watchdog."""

import pytest

from repro.benchmark.harness import (
    SPEAKER1,
    SPEAKER1_ADDR,
    SPEAKER1_ASN,
    StallError,
    Watchdog,
    run_scenario,
    stream_interleaved,
    stream_packets,
)
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.systems.platforms import build_system
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder


def make_router():
    router = build_system("pentium3")
    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
    return router


def make_packets(count=20):
    builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
    return builder.announcements(generate_table(count, 1), 1)


class TestExceptionSafety:
    def test_failed_delivery_rolls_back_and_restores_hook(self):
        router = make_router()
        packets = make_packets()
        calls = {"n": 0}

        def flaky(data):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom")
            router.deliver(SPEAKER1, data)

        with pytest.raises(RuntimeError, match="boom"):
            stream_packets(router, SPEAKER1, packets, window=4, deliver=flaky)
        assert router.on_packet_done is None

        # The window accounting stayed truthful: the same router can
        # stream the full set afterwards without phantom in-flight slots.
        router.run_until_idle()
        stream_packets(router, SPEAKER1, packets, window=4)
        assert len(router.speaker.loc_rib) == 20

    def test_interleaved_restores_hook_on_error(self):
        router = make_router()
        original = router.deliver
        calls = {"n": 0}

        def flaky(peer_id, data):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom")
            original(peer_id, data)

        router.deliver = flaky
        with pytest.raises(RuntimeError, match="boom"):
            stream_interleaved(router, [(SPEAKER1, make_packets())], window=4)
        assert router.on_packet_done is None


class TestDeadlockDetection:
    def test_lost_packets_deadlock_the_window(self):
        router = make_router()
        packets = make_packets()
        with pytest.raises(StallError) as info:
            stream_packets(
                router, SPEAKER1, packets, window=4, deliver=lambda data: None
            )
        diag = info.value.diagnostics
        assert "deadlock" in diag.reason
        # The window filled and nothing ever came back.
        assert diag.inflight == 4
        assert diag.packets_sent == 4
        assert diag.packets_total == 20
        assert router.on_packet_done is None

    def test_clean_stream_does_not_trip_the_check(self):
        router = make_router()
        stream_packets(router, SPEAKER1, make_packets(), window=4)
        assert len(router.speaker.loc_rib) == 20


class TestWatchdog:
    def test_validation(self):
        router = make_router()
        with pytest.raises(ValueError):
            Watchdog(router, interval=0.0)
        with pytest.raises(ValueError):
            Watchdog(router, patience=0)

    def test_livelock_raises_with_diagnostics(self):
        # A permanently dark link that retransmits every 50 ms without
        # end: events fire forever while no packet ever completes — the
        # livelock the watchdog exists for.
        router = make_router()
        sim = router.world.sim

        def retransmit_forever(data):
            sim.schedule(0.05, lambda: retransmit_forever(data))

        watchdog = Watchdog(router, interval=5.0, patience=2)
        with pytest.raises(StallError) as info:
            stream_packets(
                router, SPEAKER1, make_packets(), window=4,
                deliver=retransmit_forever, watchdog=watchdog,
            )
        diag = info.value.diagnostics
        assert "live event traffic" in diag.reason
        assert diag.events_fired > 0
        # Detection time is bounded by patience * interval plus one
        # check period — not proportional to the retry budget.
        assert router.now <= 20.0

    def test_watchdog_adds_zero_virtual_time(self):
        packets = make_packets()
        plain = make_router()
        stream_packets(plain, SPEAKER1, packets, window=4)
        watched = make_router()
        stream_packets(
            watched, SPEAKER1, packets, window=4,
            watchdog=Watchdog(watched, interval=0.001),
        )
        assert watched.now == plain.now
        assert watched.last_completion == plain.last_completion


class TestScenarioIntegration:
    def test_stalled_phase_fails_the_scenario_and_skips_the_rest(self):
        router = build_system("pentium3")
        result = run_scenario(
            router, 5, table_size=50,
            deliver={SPEAKER1: lambda data: None},
        )
        assert not result.completed
        assert result.stalled_phase is not None
        assert result.stalled_phase.phase == 1
        # Phases 2 and 3 were skipped rather than run against a router
        # that never got its table.
        assert len(result.phases) == 1
        assert "deadlock" in result.stalled_phase.stall.reason

    def test_clean_scenario_unaffected_by_default_watchdog(self):
        router = build_system("pentium3")
        result = run_scenario(router, 1, table_size=50)
        assert result.completed
        assert result.stalled_phase is None
        assert result.transactions_per_second > 0
