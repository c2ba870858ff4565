"""The paper's §V.C router-design implications, each as an executable
test against the simulated platforms."""

import pytest

from repro.benchmark import run_scenario
from repro.benchmark.harness import SPEAKER1, SPEAKER1_ADDR, SPEAKER1_ASN
from repro.benchmark.stability import offer_at_rate
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.systems import build_system
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

#: Paper §II: routers typically process "in the order of 100 BGP
#: messages per second".
TYPICAL_RATE = 150.0

BUILDER = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)


def offer_typical_load(platform, rate=TYPICAL_RATE, duration=20.0):
    """Offer a steady small-packet update stream; returns (router,
    offered, completed_by_end_of_offering)."""
    router = build_system(platform)
    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
    table = generate_table(500, seed=31)
    total = int(rate * duration)
    rounds = max(2, (total + len(table) - 1) // len(table))
    packets = BUILDER.flap_storm(table, rounds=rounds, prefixes_per_update=1)[:total]
    router.reset_counters()
    offer_at_rate(router, SPEAKER1, packets, rate)
    # Stop the world at the end of the offering window to observe the
    # backlog, then measure completions so far.
    router.world.run(until=duration)
    completed_during = router.transactions_completed
    router.run_until_idle()
    return router, total, completed_during


class TestImplication1EmbeddedProcessorsInsufficient:
    """Paper: "Simple embedded processors as used on network processor routers
    are insufficient to process a typical BGP load in the order of
    hundreds of messages per second." """

    def test_ixp2400_falls_behind_typical_load(self):
        router, offered, completed = offer_typical_load("ixp2400")
        # At 150/s offered, the XScale (capacity ~21 updates/s on the
        # announce path) completes only a small fraction in real time.
        assert completed < 0.4 * offered
        # The work is not lost — it just queues far behind.
        assert router.transactions_completed == offered

    def test_workstation_platforms_keep_up(self):
        for platform in ("pentium3", "xeon"):
            _router, offered, completed = offer_typical_load(platform)
            assert completed >= 0.95 * offered, platform


class TestImplication2NoSystemHandlesWormLoad:
    """Paper: "No system can handle more than 10,000 messages [per second] and
    thus no system can handle the workload generated by routing updates
    due to a worm." """

    def test_every_platform_below_worm_rate_on_small_packets(self):
        # Scenario 5 is the *cheapest* small-packet scenario: an upper
        # bound on any platform's sustainable per-message rate.
        for platform in ("pentium3", "xeon", "ixp2400", "cisco"):
            result = run_scenario(build_system(platform), 5, table_size=800)
            assert result.transactions_per_second < 10_000, platform


class TestImplication3SeparateControlAndDataPlane:
    """Paper: "For high-performance routers, it is therefore imperative to use
    different processing resources for control and data plane." """

    def test_shared_plane_platforms_degrade_separated_does_not(self):
        def retention(platform, mbps):
            base = run_scenario(
                build_system(platform), 1, table_size=400
            ).transactions_per_second
            loaded = run_scenario(
                build_system(platform), 1, table_size=400, cross_traffic_mbps=mbps
            ).transactions_per_second
            return loaded / base

        assert retention("pentium3", 315.0) < 0.75   # shared: degrades
        assert retention("xeon", 784.0) < 0.95       # shared: degrades
        assert retention("ixp2400", 940.0) > 0.98    # separated: flat


class TestImplication4AggregateUpdates:
    """Paper: "It is important to aggregate update messages into large packets
    to obtain best BGP processing performance." """

    def test_large_packets_win_on_every_platform(self):
        # The margin varies (the paper's own Xeon gap is only 7%); the
        # claim is simply that aggregation never loses.
        for platform in ("pentium3", "xeon", "ixp2400", "cisco"):
            small = run_scenario(build_system(platform), 1, table_size=1000)
            large = run_scenario(build_system(platform), 2, table_size=1000)
            assert (
                large.transactions_per_second > 1.05 * small.transactions_per_second
            ), platform


class TestImplication5MultiProcessParallelism:
    """Paper: "BGP implementations that use multiple processes perform better
    on multi-core platforms." """

    def test_xeon_exceeds_serial_bound(self):
        """On the Xeon the multi-process pipeline beats the bound a
        single-process implementation (serial stage sum at Xeon speed)
        could reach."""
        import dataclasses

        from repro.systems.platforms import PLATFORMS
        from repro.systems.router import XorpRouter

        xeon = PLATFORMS["xeon"]
        pipelined = run_scenario(
            XorpRouter(xeon), 1, table_size=800
        ).transactions_per_second
        single_core = dataclasses.replace(xeon, cores=1, threads_per_core=1)
        serial = run_scenario(
            XorpRouter(single_core), 1, table_size=800
        ).transactions_per_second
        assert pipelined > 1.5 * serial
