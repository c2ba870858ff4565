"""End-to-end integration tests: full scenarios on every platform, and
cross-cutting invariants the benchmark relies on."""

import pytest

from repro.benchmark import SCENARIOS, run_scenario
from repro.benchmark.harness import SPEAKER1, SPEAKER2
from repro.experiments.paperdata import PLATFORM_ORDER
from repro.sim.monitor import CpuMonitor
from repro.systems import build_system
from repro.workload.tablegen import generate_table

SIZE = 200


@pytest.mark.parametrize("platform", PLATFORM_ORDER)
@pytest.mark.parametrize("scenario", range(1, 9))
def test_every_cell_of_the_grid_runs(platform, scenario):
    """All 32 platform x scenario combinations produce a sane result."""
    result = run_scenario(build_system(platform), scenario, table_size=100)
    assert result.transactions == 100
    assert result.duration > 0
    expected_fib = 0 if SCENARIOS[scenario].update_type == "WITHDRAW" else 100
    assert result.fib_size_after == expected_fib


class TestControlDataPlaneConsistency:
    def test_fib_forwards_to_announced_next_hops(self):
        """After a benchmark run the FIB resolves every announced
        destination to the speaker's next hop — control plane feeding
        data plane."""
        from repro.benchmark.harness import SPEAKER1_ADDR

        router = build_system("pentium3")
        table = generate_table(SIZE, seed=8)
        run_scenario(router, 1, table=table)
        # Some generated prefixes nest, so the LPM winner can be a
        # different table entry — but every destination must resolve.
        for entry in table.entries[:50]:
            assert router.fib.lookup(entry.prefix.first_address()) == SPEAKER1_ADDR
            assert router.fib.lookup(entry.prefix.last_address()) == SPEAKER1_ADDR

    def test_scenario7_fib_next_hops_moved_to_speaker2(self):
        from repro.benchmark.harness import SPEAKER2_ADDR

        router = build_system("pentium3")
        table = generate_table(SIZE, seed=8)
        run_scenario(router, 7, table=table)
        for _prefix, next_hop in router.fib.routes():
            assert next_hop == SPEAKER2_ADDR

    def test_scenario5_fib_next_hops_stay_speaker1(self):
        from repro.benchmark.harness import SPEAKER1_ADDR

        router = build_system("pentium3")
        run_scenario(router, 5, table_size=SIZE)
        for _prefix, next_hop in router.fib.routes():
            assert next_hop == SPEAKER1_ADDR


class TestAdjRibConsistency:
    def test_scenario5_adj_ribs_hold_both_views(self):
        router = build_system("pentium3")
        run_scenario(router, 5, table_size=SIZE)
        assert len(router.speaker.peers[SPEAKER1].adj_rib_in) == SIZE
        assert len(router.speaker.peers[SPEAKER2].adj_rib_in) == SIZE
        assert len(router.speaker.loc_rib) == SIZE

    def test_scenario3_all_ribs_empty(self):
        router = build_system("pentium3")
        run_scenario(router, 3, table_size=SIZE)
        assert len(router.speaker.peers[SPEAKER1].adj_rib_in) == 0
        assert len(router.speaker.loc_rib) == 0

    def test_router_advertises_to_speaker2_in_phase2(self):
        """Phase 2: the initial table transfer reaches Speaker 2's wire."""
        from repro.bgp.messages import UpdateMessage, decode_message

        router = build_system("pentium3")
        run_scenario(router, 5, table_size=SIZE)
        announced = set()
        for packet in router.outboxes[SPEAKER2]:
            message = decode_message(packet)
            if isinstance(message, UpdateMessage):
                announced.update(message.nlri)
        assert len(announced) == SIZE

    def test_scenario7_re_advertises_replacement_to_speaker1(self):
        from repro.bgp.messages import UpdateMessage, decode_message

        router = build_system("pentium3")
        run_scenario(router, 7, table_size=SIZE)
        replaced = set()
        for packet in router.outboxes[SPEAKER1]:
            message = decode_message(packet)
            if isinstance(message, UpdateMessage):
                replaced.update(message.nlri)
        assert len(replaced) == SIZE


class TestVirtualTimeInvariants:
    def test_work_conservation_on_uni_core(self):
        """On a single core, elapsed virtual time >= total CPU charged,
        and utilisation is near 100% while saturated."""
        router = build_system("pentium3")
        monitor = CpuMonitor(router.machine)
        result = run_scenario(router, 1, table_size=SIZE)
        total_cpu = sum(
            monitor.total_cpu_seconds(name) for name in monitor.task_names()
        )
        elapsed = result.phases[-1].end
        assert total_cpu <= elapsed * 1.001
        assert total_cpu >= 0.95 * elapsed  # saturated the whole run

    def test_tps_independent_of_table_size(self):
        """Per-prefix cost is constant, so tps barely moves with size."""
        small = run_scenario(build_system("pentium3"), 1, table_size=100)
        large = run_scenario(build_system("pentium3"), 1, table_size=800)
        assert small.transactions_per_second == pytest.approx(
            large.transactions_per_second, rel=0.05
        )

    def test_same_seed_same_virtual_timeline(self):
        a = run_scenario(build_system("ixp2400"), 4, table_size=SIZE, seed=3)
        b = run_scenario(build_system("ixp2400"), 4, table_size=SIZE, seed=3)
        assert [(p.start, p.end) for p in a.phases] == [(p.start, p.end) for p in b.phases]
