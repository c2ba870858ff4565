"""Tests for benchmark statistics and the repeatability claim."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.benchmark.harness import PhaseTrace
from repro.benchmark.statistics import (
    RepeatabilityResult,
    SampleStats,
    mean,
    repeatability_study,
    speedup,
    summarize,
)
from repro.experiments import fig3, fig4, fig6

#: The exact sum is 30, but ``1e20 + 30`` rounds back to ``1e20``: a
#: left-to-right ``sum`` gives a mean of 0, ``math.fsum`` the true 10.
CANCELLING = [(float(t), v) for t, v in enumerate([1e20, 30.0, -1e20])]

#: Any finite float, mixed with one-decimal CPU percentages such as the
#: figures average (0.1 + 0.2 is inexact, so their sum depends on order).
SAMPLES = st.lists(
    st.one_of(st.floats(-1e300, 1e300), st.integers(0, 1000).map(lambda n: n / 10)),
    min_size=1, max_size=40,
)


class TestMean:
    @given(SAMPLES, st.randoms(use_true_random=False))
    def test_permuted_input_gives_a_bit_identical_mean(self, values, random):
        shuffled = random.sample(values, len(values))
        assert struct.pack("<d", mean(shuffled)) == struct.pack("<d", mean(values))

    def test_cancelling_sample(self):
        assert mean([v for _, v in CANCELLING]) == 10.0

    @pytest.mark.parametrize("figure", ["fig3", "fig4", "fig6"])
    def test_figures_render_the_exact_mean(self, figure):
        if figure == "fig3":
            result = fig3.Fig3Result(
                table_size=1, scenario=6,
                series={"pentium3": dict.fromkeys(fig3.XORP_PROCESSES, CANCELLING)},
                phases={"pentium3": []}, total_time={"pentium3": 2.0},
            )
            text = fig3.render(result)
        elif figure == "fig4":
            result = fig4.Fig4Result(
                table_size=1,
                series={n: dict.fromkeys(fig3.XORP_PROCESSES, CANCELLING) for n in (1, 2)},
                duration={1: 2.0, 2: 2.0}, tps={1: 1.0, 2: 1.0},
            )
            text = fig4.render(result)
        else:
            result = fig6.Fig6Result(
                table_size=1, cross_mbps=300.0,
                cpu={label: dict.fromkeys(fig6.CATEGORIES, CANCELLING)
                     for label in ("no-traffic", "with-traffic")},
                forwarding=[(1.0, 300.0)],
                phases={"with-traffic": [PhaseTrace(3, 0.0, 2.0, 1)]},
                duration={"no-traffic": 2.0, "with-traffic": 2.0},
            )
            text = fig6.render(result)
            assert "interrupt share under load: 10.0%" in text
        assert "mean  10.0%" in text
        assert "mean   0.0%" not in text


class TestSummarize:
    def test_basic(self):
        stats = summarize([2.0, 4.0, 6.0])
        assert stats.count == 3
        assert stats.mean == pytest.approx(4.0)
        assert stats.stdev == pytest.approx(2.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 6.0

    def test_single_value(self):
        stats = summarize([7.0])
        assert stats.stdev == 0.0
        assert stats.coefficient_of_variation == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_coefficient_of_variation(self):
        stats = summarize([90.0, 100.0, 110.0])
        assert stats.coefficient_of_variation == pytest.approx(0.1, abs=0.01)

    def test_spread(self):
        stats = summarize([90.0, 100.0, 110.0])
        assert stats.spread == pytest.approx(0.2)

    def test_zero_mean(self):
        stats = summarize([0.0, 0.0])
        assert stats.coefficient_of_variation == float("inf")


class TestSpeedup:
    def test_basic(self):
        assert speedup(100.0, 250.0) == 2.5

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)


class TestRepeatability:
    def test_needs_seeds(self):
        with pytest.raises(ValueError):
            repeatability_study("pentium3", 1, seeds=())

    def test_same_seed_identical(self):
        result = repeatability_study("pentium3", 1, seeds=(9, 9), table_size=200)
        assert result.samples[0] == result.samples[1]
        assert result.stats.stdev == 0.0

    def test_benchmark_is_repeatable_across_seeds(self):
        """The paper's §I claim: different workload instances of the
        same shape produce near-identical metrics."""
        result = repeatability_study(
            "pentium3", 1, seeds=(1, 2, 3, 4), table_size=400
        )
        assert result.is_repeatable(tolerance=0.02), result.stats

    def test_repeatable_on_large_packet_scenario(self):
        result = repeatability_study("cisco", 2, seeds=(1, 2, 3), table_size=1000)
        assert result.is_repeatable(tolerance=0.02), result.stats

    def test_result_metadata(self):
        result = repeatability_study("xeon", 6, seeds=(5,), table_size=300)
        assert result.platform == "xeon"
        assert result.scenario == 6
        assert result.table_size == 300
        assert len(result.samples) == 1
