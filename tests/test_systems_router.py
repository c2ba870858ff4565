"""Unit tests for the simulated router systems."""

import gc
import hashlib

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.benchmark.harness import run_scenario
from repro.net.addr import IPv4Address, Prefix
from repro.sim.cpu import Task
from repro.systems import build_system
from repro.systems.platforms import PLATFORMS
from repro.systems.router import _IosPacket, _PacketChain

S1 = "speaker1"
S1_AS = 65101
S1_ADDR = IPv4Address.parse("10.255.1.1")
S1_ID = IPv4Address.parse("10.255.1.1")


def announce_packet(prefixes, path=(S1_AS, 300)):
    attrs = PathAttributes(as_path=AsPath.from_asns(list(path)), next_hop=S1_ADDR)
    return UpdateMessage(attributes=attrs, nlri=tuple(prefixes)).encode()


def with_peer(router):
    router.add_peer(PeerConfig(S1, S1_AS, S1_ADDR, ACCEPT_ALL, ACCEPT_ALL))
    router.handshake(S1, S1_AS, S1_ID)
    router.reset_counters()
    return router


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_a_built_router_records_nothing(platform):
    # Monitors are attached by their readers (the figures, `scenario
    # --profile`): a run nobody watches pays for no recording.
    router = build_system(platform)
    assert router.world.machines
    for machine in router.world.machines:
        assert machine.monitors == []
    assert not hasattr(router, "cpu_monitor")
    assert not hasattr(router, "forwarding_monitor")


class TestXorpRouterChain:
    def test_single_packet_charges_time(self):
        router = with_peer(build_system("pentium3"))
        router.deliver(S1, announce_packet([Prefix.parse("192.0.2.0/24")]))
        end = router.run_until_idle()
        assert router.transactions_completed == 1
        # Scenario-1-like per-prefix time ~5.3 ms on the Pentium III.
        assert 0.004 < end < 0.007
        assert len(router.fib) == 1

    def test_functional_state_correct(self):
        router = with_peer(build_system("pentium3"))
        p1, p2 = Prefix.parse("192.0.2.0/24"), Prefix.parse("198.51.100.0/24")
        router.deliver(S1, announce_packet([p1, p2]))
        router.run_until_idle()
        assert router.fib.next_hop_for(p1) == router.speaker.config.local_address or \
            router.fib.next_hop_for(p1) == S1_ADDR
        assert len(router.speaker.loc_rib) == 2

    def test_faster_platform_finishes_sooner(self):
        times = {}
        for platform in ("pentium3", "xeon", "ixp2400"):
            router = with_peer(build_system(platform))
            for i in range(20):
                router.deliver(S1, announce_packet([Prefix.parse(f"10.{i}.0.0/16")]))
            times[platform] = router.run_until_idle()
        assert times["xeon"] < times["pentium3"] < times["ixp2400"]

    def test_transactions_counted_per_prefix(self):
        router = with_peer(build_system("pentium3"))
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(7)]
        router.deliver(S1, announce_packet(prefixes))
        router.run_until_idle()
        assert router.transactions_completed == 7
        assert router.packets_completed == 1

    def test_on_packet_done_hook(self):
        router = with_peer(build_system("pentium3"))
        calls = []
        router.on_packet_done = lambda: calls.append(router.now)
        router.deliver(S1, announce_packet([Prefix.parse("192.0.2.0/24")]))
        router.run_until_idle()
        assert len(calls) == 1

    def test_empty_rib_guard_state(self):
        router = build_system("pentium3")
        assert len(router.speaker.loc_rib) == 0

    def test_reset_counters(self):
        router = with_peer(build_system("pentium3"))
        router.deliver(S1, announce_packet([Prefix.parse("192.0.2.0/24")]))
        router.run_until_idle()
        router.reset_counters()
        assert router.transactions_completed == 0
        assert router.speaker.work.transactions == 0


def record_jobs(monkeypatch):
    """Have every ``Task.submit`` append ``(task name, service)`` to the
    returned list."""
    jobs = []
    submit = Task.submit

    def recording(task, service, callback=None, tag=""):
        jobs.append((task.name, service))
        submit(task, service, callback, tag)

    monkeypatch.setattr(Task, "submit", recording)
    return jobs


class TestPacketChain:
    """A packet's stage jobs, their order and costs, and its completion
    instant do not depend on how the chain is held."""

    #: ``run_scenario(router, scenario, table_size=1)`` — one packet per
    #: streamed phase: (platform, scenario) -> (jobs submitted, sha256
    #: prefix of ``repr`` of their ``(task name, service)`` list, the
    #: router's last completion). Recorded from the closure chain that
    #: the chain object replaced.
    PINNED = {
        ("cisco", 1): (1, "4486ad245241b55a", 0.00039999999999999996),
        ("cisco", 2): (1, "4486ad245241b55a", 0.00039999999999999996),
        ("cisco", 3): (2, "8f503c1cfe9f3c82", 0.09284),
        ("cisco", 4): (2, "8f503c1cfe9f3c82", 0.09284),
        ("cisco", 5): (3, "110ae4cd7a64664c", 0.0928),
        ("cisco", 6): (3, "110ae4cd7a64664c", 0.0928),
        ("cisco", 7): (4, "e71addd7d9aba837", 0.09295999999999999),
        ("cisco", 8): (4, "e71addd7d9aba837", 0.09295999999999999),
        ("ixp2400", 1): (6, "6dd9b14332f1dd9b", 0.04555357142857142),
        ("ixp2400", 2): (6, "6dd9b14332f1dd9b", 0.04555357142857142),
        ("ixp2400", 3): (11, "f968b341820f2a9a", 0.09017857142857143),
        ("ixp2400", 4): (11, "f968b341820f2a9a", 0.09017857142857143),
        ("ixp2400", 5): (11, "45b973718ad80c54", 0.07553571428571429),
        ("ixp2400", 6): (11, "45b973718ad80c54", 0.07553571428571429),
        ("ixp2400", 7): (16, "9c4a0297fe148d16", 0.16419642857142858),
        ("ixp2400", 8): (16, "9c4a0297fe148d16", 0.16419642857142858),
        ("pentium3", 1): (6, "6dd9b14332f1dd9b", 0.005353131313131313),
        ("pentium3", 2): (6, "6dd9b14332f1dd9b", 0.005353131313131313),
        ("pentium3", 3): (11, "f968b341820f2a9a", 0.010403535353535354),
        ("pentium3", 4): (11, "f968b341820f2a9a", 0.010403535353535354),
        ("pentium3", 5): (11, "45b973718ad80c54", 0.008545454545454545),
        ("pentium3", 6): (11, "45b973718ad80c54", 0.008545454545454545),
        ("pentium3", 7): (16, "9c4a0297fe148d16", 0.018604545454545453),
        ("pentium3", 8): (16, "9c4a0297fe148d16", 0.018604545454545453),
        ("xeon", 1): (6, "6dd9b14332f1dd9b", 0.00118),
        ("xeon", 2): (6, "6dd9b14332f1dd9b", 0.00118),
        ("xeon", 3): (11, "f968b341820f2a9a", 0.002291111111111111),
        ("xeon", 4): (11, "f968b341820f2a9a", 0.002291111111111111),
        ("xeon", 5): (11, "45b973718ad80c54", 0.00188),
        ("xeon", 6): (11, "45b973718ad80c54", 0.00188),
        ("xeon", 7): (16, "9c4a0297fe148d16", 0.004093333333333333),
        ("xeon", 8): (16, "9c4a0297fe148d16", 0.004093333333333333),
    }

    #: The Pentium III's scenario 7, spelled out: Speaker 1's packet
    #: (six stages), the initial transfer to Speaker 2 (export leg only),
    #: then Speaker 2's shorter path (six stages and an export leg).
    SCENARIO7 = [
        ("interrupts", 0.0002), ("xorp_bgp", 0.00053), ("xorp_policy", 7.000000000000001e-05),
        ("xorp_rib", 0.0018), ("xorp_fea", 0.00167), ("kernel-fib", 0.0010400000000000001),
        ("xorp_bgp", 0.0021000000000000003), ("kernel-fib", 0.00015),
        ("interrupts", 0.0002), ("xorp_bgp", 0.00063), ("xorp_policy", 0.00021),
        ("xorp_rib", 0.002), ("xorp_fea", 0.00277), ("kernel-fib", 0.0028),
        ("xorp_bgp", 0.0021000000000000003), ("kernel-fib", 0.00015),
    ]

    @pytest.mark.parametrize("platform, scenario", sorted(PINNED))
    def test_job_sequence_and_completion_are_pinned(self, monkeypatch, platform, scenario):
        jobs = record_jobs(monkeypatch)
        router = build_system(platform)
        run_scenario(router, scenario, table_size=1)
        digest = hashlib.sha256(repr(jobs).encode()).hexdigest()[:16]
        assert (len(jobs), digest, router.last_completion) == self.PINNED[platform, scenario]

    def test_scenario7_sequence(self, monkeypatch):
        jobs = record_jobs(monkeypatch)
        run_scenario(build_system("pentium3"), 7, table_size=1)
        assert jobs == self.SCENARIO7

    def test_a_chain_with_no_costed_stage_completes_through_a_zero_delay_event(
        self, monkeypatch
    ):
        router = with_peer(build_system("pentium3"))
        router.costs = router.costs.scaled(1e-16)  # every stage <= _TINY
        jobs = record_jobs(monkeypatch)
        done = []
        router.on_packet_done = lambda: done.append(router.now)
        start = router.now
        fired = router.world.sim.events_fired
        router._arrive(S1, announce_packet([Prefix.parse("192.0.2.0/24")]))
        assert done == []
        assert router.run_until_idle() == start
        assert done == [start]
        assert jobs == []
        # One zero-delay event ends each leg: receive, then export.
        assert router.world.sim.events_fired == fired + 2
        assert router.transactions_completed == 1
        assert len(router.fib) == 1

    @pytest.mark.parametrize("platform", ["pentium3", "cisco"])
    def test_a_finished_chain_is_freed_without_a_collection(self, platform):
        router = with_peer(build_system(platform))
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(2)]
        router.deliver(S1, announce_packet(prefixes))

        def chains():
            return [o for o in gc.get_objects() if isinstance(o, (_PacketChain, _IosPacket))]

        gc.collect()
        gc.disable()
        try:
            router.world.run(until=1e-4)
            assert len(chains()) == 1
            router.run_until_idle()
            assert router.packets_completed == 1
            assert chains() == []
        finally:
            gc.enable()


class TestCrossTraffic:
    def test_cross_traffic_slows_pentium3(self):
        def run_with(mbps):
            router = with_peer(build_system("pentium3"))
            router.set_cross_traffic(mbps)
            for i in range(10):
                router.deliver(S1, announce_packet([Prefix.parse(f"10.{i}.0.0/16")]))
            return router.run_until_idle()

        assert run_with(300.0) > 1.2 * run_with(0.0)

    def test_cross_traffic_does_not_slow_ixp(self):
        def run_with(mbps):
            router = with_peer(build_system("ixp2400"))
            router.set_cross_traffic(mbps)
            for i in range(5):
                router.deliver(S1, announce_packet([Prefix.parse(f"10.{i}.0.0/16")]))
            return router.run_until_idle()

        assert run_with(900.0) == pytest.approx(run_with(0.0), rel=0.02)

    def test_offered_rate_clamped_to_platform_max(self):
        router = build_system("pentium3")
        router.set_cross_traffic(10_000.0)
        assert router.cross_traffic_mbps == 315.0

    def test_forwarding_monitor_reports_rate(self):
        router = with_peer(build_system("pentium3"))
        forwarding = router.watch_forwarding()
        router.set_cross_traffic(100.0)
        router.deliver(S1, announce_packet([Prefix.parse("192.0.2.0/24")]))
        router.run_until_idle(extra=2.0)
        series = forwarding.series()
        assert series
        assert series[-1][1] == pytest.approx(100.0, rel=0.1)

    @pytest.mark.parametrize("platform", ["pentium3", "xeon", "ixp2400", "cisco"])
    def test_watch_forwarding_reads_in_mbps_on_every_platform(self, platform):
        # The per-platform task and scale: softnet on the host, the
        # packet processors on the IXP2400, the interrupt path on IOS.
        router = build_system(platform)
        forwarding = router.watch_forwarding()
        router.set_cross_traffic(50.0)
        router.run_until_idle(extra=2.0)
        assert [rate for _t, rate in forwarding.series()] == pytest.approx([50.0, 50.0])
        assert forwarding.loss_fraction() == pytest.approx(0.0, abs=1e-9)


class TestCiscoRouter:
    def test_pacing_dominates_small_packets(self):
        router = with_peer(build_system("cisco"))
        for i in range(5):
            router.deliver(S1, announce_packet([Prefix.parse(f"10.{i}.0.0/16")]))
        end = router.run_until_idle()
        # Releases are gated one pacing interval apart, the first at t=0:
        # the last of 5 packets starts at 4 intervals and finishes after
        # its (tiny) CPU work.
        pacing = router.costs.pacing_interval
        assert end == pytest.approx(4 * pacing, rel=0.05)

    def test_work_dominates_large_packets(self):
        router = with_peer(build_system("cisco"))
        prefixes = [Prefix.parse(f"10.{i // 250}.{i % 250}.0/24") for i in range(500)]
        router.deliver(S1, announce_packet(prefixes))
        end = router.run_until_idle()
        expected = 500 * (router.costs.prefix_announce + router.costs.fib_add)
        assert end == pytest.approx(max(expected, router.costs.pacing_interval), rel=0.05)

    def test_cross_traffic_slows_large_but_not_pacing(self):
        def run(mbps, n_prefixes):
            router = with_peer(build_system("cisco"))
            router.set_cross_traffic(mbps)
            if n_prefixes == 1:
                for i in range(3):
                    router.deliver(S1, announce_packet([Prefix.parse(f"10.{i}.0.0/16")]))
            else:
                prefixes = [Prefix.parse(f"10.{i // 250}.{i % 250}.0/24") for i in range(n_prefixes)]
                router.deliver(S1, announce_packet(prefixes))
            return router.run_until_idle()

        # Small packets: pacing-bound, nearly unaffected by cross-traffic.
        assert run(78.0, 1) == pytest.approx(run(0.0, 1), rel=0.10)
        # Large packets: CPU-bound, much slower under cross-traffic.
        assert run(78.0, 500) > 3 * run(0.0, 500)

    def test_functional_processing_identical_to_xorp(self):
        p = Prefix.parse("192.0.2.0/24")
        cisco = with_peer(build_system("cisco"))
        cisco.deliver(S1, announce_packet([p]))
        cisco.run_until_idle()
        xorp = with_peer(build_system("pentium3"))
        xorp.deliver(S1, announce_packet([p]))
        xorp.run_until_idle()
        assert cisco.fib.next_hop_for(p) == xorp.fib.next_hop_for(p)
        assert len(cisco.speaker.loc_rib) == len(xorp.speaker.loc_rib)


class TestHandshake:
    def test_handshake_failure_raises(self):
        router = build_system("pentium3")
        router.add_peer(PeerConfig(S1, S1_AS, S1_ADDR))
        # Never start the session: handshake's OPEN arrives in IDLE.
        with pytest.raises(RuntimeError):
            router.handshake(S1, 99, S1_ID)  # wrong ASN also fails fast

    def test_initial_advertisement_charged(self):
        router = with_peer(build_system("pentium3"))
        router.deliver(S1, announce_packet([Prefix.parse("192.0.2.0/24")]))
        router.run_until_idle()
        router.add_peer(PeerConfig("speaker2", 65102, IPv4Address.parse("10.255.2.1")))
        router.handshake("speaker2", 65102, IPv4Address.parse("10.255.2.1"))
        before = router.now
        router.schedule_initial_advertisement("speaker2")
        end = router.run_until_idle()
        assert end > before  # the transfer consumed virtual time
        assert router.outboxes["speaker2"]
