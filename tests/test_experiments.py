"""Tests for the per-table/figure experiment runners.

These use small tables to stay fast; the full-size regenerations live in
benchmarks/.
"""

import pytest

from repro.experiments.fig3 import FIG3_PLATFORMS, XORP_PROCESSES, run_fig3
from repro.experiments.fig4 import busy_overlap_fraction, run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import CATEGORIES, categorise, run_fig6
from repro.experiments.paperdata import PAPER_TABLE3, PLATFORM_ORDER
from repro.experiments.runner import build_parser, main
from repro.experiments.table3 import render, run_table3

SIZE = 250

#: Table III needs several large (500-prefix) packets per phase for the
#: pipelined platforms to behave representatively.
TABLE3_SIZE = 1000


@pytest.fixture(scope="module")
def table3_result():
    return run_table3(table_size=TABLE3_SIZE)


class TestTable3:
    def test_grid_complete(self, table3_result):
        assert set(table3_result.measured) == set(PLATFORM_ORDER)
        for platform in PLATFORM_ORDER:
            assert sorted(table3_result.measured[platform]) == list(range(1, 9))

    def test_all_qualitative_checks_pass(self, table3_result):
        failing = [claim for claim, ok in table3_result.checks().items() if not ok]
        assert not failing, failing

    def test_pentium3_close_to_paper(self, table3_result):
        """The reference platform is the calibration anchor: every
        scenario within 35% of the paper (most are within a few %)."""
        for scenario in range(1, 9):
            measured = table3_result.measured["pentium3"][scenario]
            paper = PAPER_TABLE3["pentium3"][scenario]
            assert 0.65 < measured / paper < 1.35, (scenario, measured, paper)

    def test_cisco_close_to_paper(self, table3_result):
        for scenario in range(1, 9):
            measured = table3_result.measured["cisco"][scenario]
            paper = PAPER_TABLE3["cisco"][scenario]
            assert 0.6 < measured / paper < 1.4, (scenario, measured, paper)

    def test_every_platform_within_2x_on_most_scenarios(self, table3_result):
        for platform in PLATFORM_ORDER:
            within = sum(
                1
                for s in range(1, 9)
                if 0.5 < table3_result.measured[platform][s] / PAPER_TABLE3[platform][s] < 2.0
            )
            assert within >= 6, platform

    def test_render_contains_all_cells(self, table3_result):
        text = render(table3_result)
        assert "Scenario 8" in text
        assert "Qualitative checks" in text
        assert "FAIL" not in text


class TestFig3:
    def test_platforms_and_processes(self):
        result = run_fig3(table_size=SIZE)
        assert set(result.series) == set(FIG3_PLATFORMS)
        for platform in FIG3_PLATFORMS:
            assert set(result.series[platform]) == set(XORP_PROCESSES)

    def test_time_ordering_xeon_fastest_ixp_slowest(self):
        result = run_fig3(table_size=SIZE)
        assert (
            result.total_time["xeon"]
            < result.total_time["pentium3"]
            < result.total_time["ixp2400"]
        )

    def test_rtrmgr_relatively_heavier_on_ixp(self):
        """Figure 3(c): xorp_rtrmgr is a considerable share on the XScale."""
        result = run_fig3(table_size=SIZE)

        def rtrmgr_share(platform):
            series = result.series[platform]
            total = sum(sum(v for _t, v in s) for s in series.values())
            rtrmgr = sum(v for _t, v in series["xorp_rtrmgr"])
            return rtrmgr / total if total else 0.0

        assert rtrmgr_share("ixp2400") > 3 * rtrmgr_share("pentium3")


class TestFig4:
    def test_large_packets_finish_sooner(self):
        result = run_fig4(table_size=SIZE)
        assert result.duration[2] < result.duration[1]
        assert result.tps[2] > result.tps[1]

    def test_competition_signature(self):
        """Small packets: bgp/fea/rib compete more of the time."""
        result = run_fig4(table_size=1000)
        small = busy_overlap_fraction(result.series[1])
        large = busy_overlap_fraction(result.series[2])
        assert small > large

    def test_busy_overlap_empty(self):
        assert busy_overlap_fraction({}) == 0.0


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(table_size=SIZE, points=3, scenarios=(1, 2))

    def test_ixp_flat(self, result):
        assert result.degradation(1, "ixp2400") == pytest.approx(1.0, abs=0.05)

    def test_pentium3_degrades(self, result):
        assert result.degradation(1, "pentium3") < 0.8

    def test_cisco_small_flat_large_collapses(self, result):
        assert result.degradation(1, "cisco") == pytest.approx(1.0, abs=0.1)
        assert result.degradation(2, "cisco") < 0.2

    def test_zero_traffic_matches_table3(self, result, table3_result=None):
        curve = result.series[1]["pentium3"]
        assert curve[0][0] == 0.0
        assert curve[0][1] == pytest.approx(
            PAPER_TABLE3["pentium3"][1], rel=0.35
        )


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(table_size=600)

    def test_interrupt_share_in_paper_band(self, result):
        assert 0.15 <= result.interrupt_share_during_run() <= 0.35

    def test_cross_traffic_slows_benchmark(self, result):
        assert result.duration["with-traffic"] > 1.2 * result.duration["no-traffic"]

    def test_forwarding_dips_during_phase3(self, result):
        assert result.min_forwarding_in_phase3() < 0.9 * result.cross_mbps

    def test_no_interrupts_without_traffic(self, result):
        series = result.cpu["no-traffic"]["interrupts"]
        assert all(v == pytest.approx(0.0, abs=0.5) for _t, v in series)

    def test_categorise_covers_all_tasks(self):
        cpu = {"xorp_bgp": [(0.0, 10.0)], "kernel-fib": [(0.0, 5.0)],
               "interrupts": [(0.0, 2.0)]}
        categories = categorise(cpu)
        assert set(categories) == set(CATEGORIES)
        assert categories["user"][0][1] == 10.0
        assert categories["system"][0][1] == 5.0
        assert categories["interrupts"][0][1] == 2.0


class TestRunnerCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["table3", "--table-size", "100"])
        assert args.command == "table3"
        assert args.table_size == 100

    def test_scenario_command(self, capsys):
        rc = main([
            "scenario", "--platform", "cisco", "--scenario", "2",
            "--table-size", "200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cisco scenario 2" in out
        assert "transactions/s" in out

    def test_scenario_requires_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "--scenario", "1"])

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["table3", "--table-size", "0"], "--table-size", id="table3-size"),
        pytest.param(["scenario", "--platform", "pentium3", "--scenario", "1",
                      "--table-size", "0"], "--table-size", id="scenario-size"),
        pytest.param(["scenario", "--platform", "xeon", "--scenario", "1",
                      "--cross-traffic", "-5"], "--cross-traffic", id="cross-traffic"),
        pytest.param(["scenario", "--platform", "xeon", "--scenario", "1",
                      "--cross-traffic", "nan"], "--cross-traffic", id="cross-traffic-nan"),
        pytest.param(["chain", "--platforms", "pentium3", "--packing", "0"], "--packing",
                     id="packing"),
        pytest.param(["chain", "--platforms", "pentium3", "--link-delay", "-1"],
                     "--link-delay", id="link-delay"),
        pytest.param(["stability", "--platform", "pentium3", "--rate", "0"], "--rate",
                     id="rate"),
        pytest.param(["stability", "--platform", "pentium3", "--hold-time", "0"],
                     "--hold-time", id="hold-time"),
        pytest.param(["stability", "--platform", "pentium3", "--duration", "3"],
                     "--duration", id="duration-below-keepalive-interval"),
        pytest.param(["grid", "--table-sizes", "0"], "--table-sizes", id="grid-size"),
        pytest.param(["grid", "--table-sizes", "-5"], "--table-sizes",
                     id="grid-size-negative"),
        pytest.param(["grid", "--workers", "0"], "--workers", id="workers"),
        pytest.param(["grid", "--workers", "-2"], "--workers", id="workers-negative"),
        pytest.param(["regress", "--workers", "0"], "--workers", id="regress-workers"),
        pytest.param(["grid", "--cell-timeout", "0"], "--cell-timeout", id="cell-timeout"),
        pytest.param(["grid", "--cell-timeout", "nan"], "--cell-timeout",
                     id="cell-timeout-nan"),
        pytest.param(["topo", "--shards", "0"], "--shards", id="topo-shards"),
        pytest.param(["topo", "--shards", "-1"], "--shards", id="topo-shards-negative"),
    ])
    def test_bad_numbers_are_usage_errors(self, argv, flag, capsys):
        """A value out of a flag's range exits 2 before anything runs,
        naming the flag on the last stderr line — not a traceback, and
        not a run that reports 0.0 transactions/s."""
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert last.startswith(f"bgpbench {argv[0]}: ") and flag in last

    @pytest.mark.parametrize("command", ["grid", "regress"])
    def test_shards_is_a_topo_flag_only(self, command, capsys):
        # The parallel engine has one door, `bgpbench topo --shards`.
        with pytest.raises(SystemExit) as raised:
            main([command, "--shards", "2"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--link-delay", "1e-12"], "give the conservative engine no "
                     "lookahead", id="no-lookahead"),
    ])
    def test_sharded_topo_refusals_are_usage_errors(self, argv, message, capsys,
                                                    monkeypatch):
        from repro.parallel import ParallelEngine

        def no_spawn(engine):
            raise AssertionError("shard processes started for a refused cell")

        monkeypatch.setattr(ParallelEngine, "_spawn", no_spawn)
        with pytest.raises(SystemExit) as raised:
            main(["topo", "--shards", "2", *argv])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bgpbench topo: --shards 2: ")
        assert message in captured.err and captured.err.count("\n") == 1
