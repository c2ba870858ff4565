"""Tests for the keepalive-starvation analysis.

The worm-event failure mode (paper §II/§V.C): updates offered faster
than the platform can process them grow the control-plane queues
without bound, and the keepalive — queued FIFO behind that backlog —
slips past the peer's hold time.
"""

import pytest

from repro.benchmark.harness import SPEAKER1, SPEAKER1_ADDR, SPEAKER1_ASN
from repro.benchmark.stability import (
    KeepaliveProbe,
    StabilityReport,
    offer_at_rate,
    run_storm,
)
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.systems import build_system
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

INTERVAL = 5.0
HOLD_TIME = 15.0


def prepared_router(platform):
    router = build_system(platform)
    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
    return router


def storm_at_rate(
    platform,
    updates_per_second,
    duration=30.0,
    interval=INTERVAL,
    hold_time=HOLD_TIME,
):
    """Sustain *updates_per_second* of small-packet flaps for *duration*
    simulated seconds — a worm storm lasts minutes, not one burst."""
    if interval == hold_time / 3.0:  # the probe interval run_storm uses
        return run_storm(
            platform, updates_per_second, duration, hold_time, table_size=500, seed=77
        )
    router = prepared_router(platform)
    probe = KeepaliveProbe(
        router, interval=interval, hold_time=hold_time, horizon=duration
    )
    builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
    total = int(updates_per_second * duration)
    table = generate_table(500, seed=77)
    rounds = max(2, (total + len(table) - 1) // len(table))
    packets = builder.flap_storm(table, rounds=rounds, prefixes_per_update=1)[:total]
    offer_at_rate(router, SPEAKER1, packets, updates_per_second)
    router.run_until_idle()
    return probe.stop()


class TestReport:
    def test_max_gap_empty(self):
        report = StabilityReport(interval=30.0, hold_time=90.0)
        assert report.max_gap == float("inf")
        assert not report.session_survives

    def test_max_gap_includes_leading_gap(self):
        report = StabilityReport(30.0, 90.0, completions=[100.0, 130.0])
        assert report.max_gap == 100.0

    def test_worst_lateness(self):
        report = StabilityReport(30.0, 90.0, completions=[30.0, 75.0])
        assert report.worst_lateness == pytest.approx(15.0)  # due 60, done 75

    def test_validation(self):
        router = build_system("pentium3")
        with pytest.raises(ValueError):
            KeepaliveProbe(router, interval=0)
        with pytest.raises(ValueError):
            KeepaliveProbe(router, interval=30.0, horizon=10.0)
        with pytest.raises(ValueError):
            offer_at_rate(router, SPEAKER1, [], 0)


class TestIdleRouter:
    def test_keepalives_on_time_when_idle(self):
        router = build_system("pentium3")
        probe = KeepaliveProbe(router, interval=5.0, hold_time=15.0, horizon=30.0)
        router.run_until_idle()
        report = probe.stop()
        assert len(report.completions) == 6
        assert report.worst_lateness < 0.01
        assert report.session_survives


class TestUnderStorm:
    """Each storm's keepalive completion times are pinned exactly
    (``==`` on floats): the fluid CPU model is deterministic, and a
    change to its loop that is meant to be a pure speed-up must leave
    every float where it was."""

    def test_pentium3_starves_when_offered_exceeds_capacity(self):
        """Sustained 1000 small updates/s saturates the Pentium III's
        xorp_bgp (which also sends the keepalives): its queue grows
        without bound and the keepalive slips past the hold time."""
        report = storm_at_rate("pentium3", updates_per_second=1500)
        assert not report.session_survives
        assert report.max_gap > HOLD_TIME
        assert report.completions == [
            20.791545454536394, 38.054323232305784, 52.59330303028251,
            67.06663636361635, 81.56152525251845, 96.06620202020925,
        ]

    def test_xeon_survives_the_same_offered_rate(self):
        """The dual-core has ample parsing headroom at 1000/s."""
        report = storm_at_rate("xeon", updates_per_second=1000)
        assert report.session_survives
        assert report.completions == [
            5.000018518518519, 10.000018518518518, 15.000018518518518,
            20.00001851851852, 25.00001851851852, 30.00001515151515,
        ]

    def test_no_system_survives_full_worm_rate(self):
        """Paper §V.C: 'no system can handle the workload generated by
        routing updates due to a worm' — a sustained 10 000 updates/s
        starves even the Xeon's BGP process (short hold time keeps the
        simulated window small)."""
        report = storm_at_rate(
            "xeon", updates_per_second=12_000, duration=6.0,
            interval=1.5, hold_time=3.5,
        )
        assert not report.session_survives
        assert report.completions == [
            4.192987398766435, 8.044733587477056, 11.62936508624446,
            15.21496145302223,
        ]

    def test_offered_below_capacity_survives_everywhere(self):
        expected = {
            "pentium3": [
                5.000252525252526, 10.000252525252526, 15.000252525252526,
                20.000050505050506,
            ],
            "xeon": [
                5.000015151515152, 10.000015151515152, 15.000015151515152,
                20.00001111111111,
            ],
        }
        for platform in ("pentium3", "xeon"):
            report = storm_at_rate(platform, updates_per_second=100, duration=20.0)
            assert report.session_survives, platform
            assert report.completions == expected[platform], platform
