"""Integration tests for the two-speaker/three-phase benchmark harness."""

import pytest

from repro.benchmark import run_scenario
from repro.benchmark.harness import SPEAKER1, SPEAKER2, PhaseTrace
from repro.systems import build_system
from repro.workload.tablegen import generate_table

SIZE = 300


class TestPhaseStructure:
    def test_startup_scenario_measures_phase1(self):
        result = run_scenario(build_system("pentium3"), 1, table_size=SIZE)
        assert [p.phase for p in result.phases] == [1]
        assert result.phases[0].transactions == SIZE
        assert result.transactions == SIZE

    def test_ending_scenario_runs_phases_1_and_3(self):
        result = run_scenario(build_system("pentium3"), 3, table_size=SIZE)
        assert [p.phase for p in result.phases] == [1, 3]
        assert result.phases[1].transactions == SIZE

    def test_incremental_scenarios_run_all_phases(self):
        result = run_scenario(build_system("pentium3"), 5, table_size=SIZE)
        assert [p.phase for p in result.phases] == [1, 2, 3]

    def test_phases_are_contiguous_and_ordered(self):
        result = run_scenario(build_system("pentium3"), 7, table_size=SIZE)
        for earlier, later in zip(result.phases, result.phases[1:]):
            assert later.start >= earlier.end

    def test_measured_phase_duration_positive(self):
        for scenario in range(1, 9):
            result = run_scenario(build_system("pentium3"), scenario, table_size=50)
            assert result.duration > 0, scenario
            assert result.transactions_per_second > 0, scenario


class TestFinalState:
    def test_scenario1_fills_fib(self):
        result = run_scenario(build_system("pentium3"), 1, table_size=SIZE)
        assert result.fib_size_after == SIZE

    def test_scenario3_empties_fib(self):
        result = run_scenario(build_system("pentium3"), 3, table_size=SIZE)
        assert result.fib_size_after == 0

    def test_scenario5_keeps_fib_full(self):
        result = run_scenario(build_system("pentium3"), 5, table_size=SIZE)
        assert result.fib_size_after == SIZE

    def test_scenario7_keeps_fib_full_after_replace(self):
        result = run_scenario(build_system("pentium3"), 7, table_size=SIZE)
        assert result.fib_size_after == SIZE

    def test_scenario7_routes_point_at_speaker2(self):
        """After the replace phase every best route is Speaker 2's."""
        router = build_system("pentium3")
        run_scenario(router, 7, table_size=SIZE)
        for route in router.speaker.loc_rib.routes():
            assert route.peer_id == SPEAKER2

    def test_scenario5_routes_still_point_at_speaker1(self):
        router = build_system("pentium3")
        run_scenario(router, 5, table_size=SIZE)
        for route in router.speaker.loc_rib.routes():
            assert route.peer_id == SPEAKER1

    def test_reused_router_rejected(self):
        router = build_system("pentium3")
        run_scenario(router, 1, table_size=50)
        with pytest.raises(ValueError):
            run_scenario(router, 1, table_size=50)


class TestMetric:
    def test_tps_is_transactions_over_duration(self):
        result = run_scenario(build_system("pentium3"), 1, table_size=SIZE)
        assert result.transactions_per_second == pytest.approx(
            result.transactions / result.duration
        )

    def test_setup_time_excluded(self):
        """Scenario 3's metric covers only Phase 3, not the table load."""
        result = run_scenario(build_system("pentium3"), 3, table_size=SIZE)
        phase3 = result.phases[-1]
        assert result.duration == pytest.approx(phase3.duration)
        assert result.duration < phase3.end  # total elapsed is larger

    def test_deterministic_runs(self):
        a = run_scenario(build_system("xeon"), 6, table_size=SIZE, seed=11)
        b = run_scenario(build_system("xeon"), 6, table_size=SIZE, seed=11)
        assert a.transactions_per_second == pytest.approx(b.transactions_per_second)
        assert a.duration == pytest.approx(b.duration)

    def test_table_can_be_supplied(self):
        table = generate_table(SIZE, seed=5)
        result = run_scenario(build_system("pentium3"), 1, table=table)
        assert result.table_size == SIZE

    def test_large_packets_faster_for_same_table(self):
        small = run_scenario(build_system("pentium3"), 1, table_size=SIZE)
        large = run_scenario(build_system("pentium3"), 2, table_size=SIZE)
        assert large.transactions_per_second > small.transactions_per_second

    def test_window_size_does_not_change_functional_result(self):
        a = run_scenario(build_system("pentium3"), 5, table_size=100, window=1)
        b = run_scenario(build_system("pentium3"), 5, table_size=100, window=32)
        assert a.transactions == b.transactions
        assert a.fib_size_after == b.fib_size_after


class TestSeries:
    def test_cpu_series_present(self):
        result = run_scenario(build_system("pentium3"), 1, table_size=SIZE)
        assert "xorp_bgp" in result.cpu_series
        assert result.cpu_series["xorp_bgp"]

    def test_forwarding_series_with_cross_traffic(self):
        result = run_scenario(
            build_system("pentium3"), 1, table_size=SIZE, cross_traffic_mbps=100.0
        )
        assert result.forwarding_series
        assert result.cross_traffic_mbps == 100.0

    def test_cross_traffic_recorded_clamped(self):
        result = run_scenario(
            build_system("cisco"), 2, table_size=SIZE, cross_traffic_mbps=500.0
        )
        assert result.cross_traffic_mbps == 78.0


class TestResultPortability:
    """Results must survive a process boundary (pickle, for the grid
    executor) and a JSON file (the grid cache and golden baselines)."""

    def test_scenario_result_pickles(self):
        import pickle

        result = run_scenario(build_system("pentium3"), 5, table_size=100)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.transactions_per_second == result.transactions_per_second
        assert [p.phase for p in clone.phases] == [p.phase for p in result.phases]
        assert clone.scenario == result.scenario

    def test_to_jsonable_roundtrips_through_json(self):
        import json

        result = run_scenario(build_system("pentium3"), 3, table_size=100)
        summary = result.to_jsonable()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["scenario"] == 3
        assert summary["transactions"] == result.transactions
        assert summary["transactions_per_second"] == result.transactions_per_second
        assert [p["phase"] for p in summary["phases"]] == [1, 3]
        assert all(p["stall"] is None for p in summary["phases"])
        assert "cpu_series" not in summary

    def test_stalled_result_stays_portable(self):
        import json
        import pickle

        from repro.benchmark.harness import StallDiagnostics

        diag = StallDiagnostics(
            reason="test stall", virtual_time=1.0, inflight=2,
            packets_sent=3, packets_total=4, packets_completed=1, events_fired=9,
        )
        trace = PhaseTrace(1, 0.0, 1.0, 1, completed=False, stall=diag)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.stall.reason == "test stall"
        summary = trace.to_jsonable()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["stall"]["reason"] == "test stall"
