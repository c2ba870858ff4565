"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation switches off one modeled mechanism and shows the result
the paper attributes to it disappears — evidence the reproduction gets
the right answers for the right reasons.
"""

import dataclasses

import pytest

from repro.benchmark import run_scenario
from repro.systems.platforms import PLATFORMS
from repro.systems.router import XorpRouter


def run_on(spec, scenario, **kwargs):
    return run_scenario(XorpRouter(spec), scenario, **kwargs)


class TestPerMessageOverheadAblation:
    """Paper implication: "aggregate update messages into large packets
    to eliminate per-packet overheads". Removing the per-message costs
    from the model must collapse the small/large gap."""

    def test_small_large_gap_collapses_without_per_message_costs(self, benchmark):
        spec = PLATFORMS["pentium3"]
        no_overhead = dataclasses.replace(
            spec,
            costs=dataclasses.replace(
                spec.costs, pkt_rx=1e-9, msg_parse=1e-9, ipc_rib_msg=1e-9, ipc_fea_msg=1e-9
            ),
        )

        def run_all():
            return {
                (name, s): run_on(sp, s, table_size=800).transactions_per_second
                for name, sp in (("base", spec), ("ablated", no_overhead))
                for s in (1, 2)
            }

        tps = benchmark.pedantic(run_all, rounds=1, iterations=1)
        base_gap = tps[("base", 2)] / tps[("base", 1)]
        ablated_gap = tps[("ablated", 2)] / tps[("ablated", 1)]
        print(f"\nlarge/small gap: base {base_gap:.2f}x, without per-message costs {ablated_gap:.2f}x")
        assert base_gap > 1.5
        assert ablated_gap == pytest.approx(1.0, abs=0.05)


class TestFibLockAblation:
    """The Figure 6(c) forwarding dip is caused by the FIB write lock;
    unblocking the forwarding path must remove it."""

    def test_dip_disappears_without_lock(self, benchmark):
        def min_forwarding(locked):
            router = XorpRouter(PLATFORMS["pentium3"])
            if not locked:
                router.softnet.blocked_by = None
            forwarding = router.watch_forwarding()
            result = run_scenario(
                router, 8, table_size=800, cross_traffic_mbps=300.0
            )
            phase3 = result.phases[-1]
            rates = [
                v for t, v in forwarding.series()
                if phase3.start <= t <= phase3.end
            ]
            return min(rates) if rates else 300.0

        with_lock = benchmark.pedantic(
            min_forwarding, args=(True,), rounds=1, iterations=1
        )
        without_lock = min_forwarding(False)
        print(f"\nmin forwarding in phase 3: with lock {with_lock:.0f} Mb/s, "
              f"without {without_lock:.0f} Mb/s")
        assert with_lock < 0.8 * 300.0
        assert without_lock > 0.95 * 300.0


class TestSecondCoreAblation:
    """A single-core Xeon at the same clock loses the pipeline overlap:
    its throughput falls back to the serial-sum bound (paper §V.C:
    multi-process BGP implementations perform better on multi-core
    platforms)."""

    def test_single_core_xeon_much_slower(self, benchmark):
        xeon = PLATFORMS["xeon"]
        uni_xeon = dataclasses.replace(xeon, cores=1, threads_per_core=1)

        def run_both():
            return (
                run_on(xeon, 1, table_size=800).transactions_per_second,
                run_on(uni_xeon, 1, table_size=800).transactions_per_second,
            )

        dual, single = benchmark.pedantic(run_both, rounds=1, iterations=1)
        print(f"\nxeon scenario 1: dual-core {dual:.0f} tps, single-core {single:.0f} tps")
        assert dual > 1.5 * single
        # The single core is pinned to the serial-sum bound: the sum of
        # all per-prefix stage costs divided by the platform speed.
        serial_bound = 1.0 / (5.34e-3 / xeon.speed)
        assert single == pytest.approx(serial_bound, rel=0.15)


class TestRtrmgrOverheadAblation:
    """Figure 3(c): the router manager consumes a considerable share of
    the XScale. Removing it must speed the IXP2400 up noticeably while
    barely moving the Pentium III."""

    def test_rtrmgr_matters_on_ixp_only(self, benchmark):
        def speedup(platform):
            spec = PLATFORMS[platform]
            quiet = dataclasses.replace(spec, rtrmgr_background=0.0)
            base = run_on(spec, 5, table_size=400).transactions_per_second
            ablated = run_on(quiet, 5, table_size=400).transactions_per_second
            return ablated / base

        ixp_speedup = benchmark.pedantic(
            speedup, args=("ixp2400",), rounds=1, iterations=1
        )
        p3_speedup = speedup("pentium3")
        print(f"\nrtrmgr-off speedup: ixp2400 {ixp_speedup:.2f}x, pentium3 {p3_speedup:.2f}x")
        assert ixp_speedup > 1.10
        assert p3_speedup < 1.05


class TestSmtEfficiencyAblation:
    """Hyper-threading contention: perfect SMT (efficiency 1.0) should
    lift the Xeon's saturated scenarios."""

    def test_perfect_smt_raises_throughput(self, benchmark):
        xeon = PLATFORMS["xeon"]
        perfect = dataclasses.replace(xeon, smt_efficiency=1.0)

        def run_both():
            return (
                run_on(xeon, 1, table_size=800).transactions_per_second,
                run_on(perfect, 1, table_size=800).transactions_per_second,
            )

        base, ideal = benchmark.pedantic(run_both, rounds=1, iterations=1)
        print(f"\nxeon scenario 1: smt=0.6 {base:.0f} tps, smt=1.0 {ideal:.0f} tps")
        assert ideal > 1.1 * base


class TestPolicyComplexityAblation:
    """The paper attributes BGP's cost to policy-based selection (§II);
    sweeping the import-policy chain length shows the processing rate
    degrading as policy complexity grows."""

    def test_longer_policy_chains_reduce_throughput(self, benchmark):
        import dataclasses as _dc

        from repro.benchmark import run_scenario
        from repro.bgp.policy import Match, Policy, Rule
        from repro.bgp.speaker import PeerConfig
        from repro.benchmark.harness import (
            SPEAKER1,
            SPEAKER1_ADDR,
            SPEAKER1_ASN,
            stream_packets,
        )
        from repro.bgp.policy import ACCEPT_ALL
        from repro.workload.tablegen import generate_table
        from repro.workload.updates import UpdateStreamBuilder
        from repro.systems.platforms import PLATFORMS
        from repro.systems.router import XorpRouter

        def tps_with_rules(rule_count):
            # Rules that never match force full-chain evaluation.
            policy = Policy(
                [Rule(Match(as_in_path=60000 + i)) for i in range(rule_count)]
            )
            router = XorpRouter(PLATFORMS["pentium3"])
            router.add_peer(
                PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR,
                           import_policy=policy, export_policy=ACCEPT_ALL)
            )
            router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
            builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
            table = generate_table(500, seed=21)
            router.reset_counters()
            start = router.now
            stream_packets(router, SPEAKER1, builder.announcements(table, 1), 8)
            elapsed = router.last_completion - start
            return router.transactions_completed / elapsed

        results = benchmark.pedantic(
            lambda: {n: tps_with_rules(n) for n in (0, 10, 40)},
            rounds=1, iterations=1,
        )
        print("\npolicy-chain sweep:", {n: round(v, 1) for n, v in results.items()})
        assert results[0] > results[10] > results[40]
        # 40 never-matching rules add 40 evaluations x 0.07 ms = 2.8 ms
        # per prefix on the Pentium III: roughly halves the rate.
        assert results[40] < 0.75 * results[0]
