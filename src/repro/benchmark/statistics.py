"""Benchmark statistics: repeatability and comparison.

The paper's stated goal is "being able to generate repeatable
performance measurements" (§I). :func:`repeatability_study` quantifies
that for this reproduction: the same scenario is run with different
workload seeds (different synthetic tables of the same size), and the
dispersion of the transactions/s metric is reported. A well-behaved
benchmark shows a coefficient of variation of a few percent at most —
per-prefix processing cost does not depend on which prefixes are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.benchmark.harness import run_scenario
from repro.systems.platforms import build_system


@dataclass(frozen=True, slots=True)
class SampleStats:
    """Summary statistics of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    @property
    def coefficient_of_variation(self) -> float:
        """stdev / mean — the benchmark's dispersion figure."""
        return self.stdev / self.mean if self.mean else float("inf")

    @property
    def spread(self) -> float:
        """(max - min) / mean."""
        return (self.maximum - self.minimum) / self.mean if self.mean else float("inf")


def mean(values: "list[float]") -> float:
    """The arithmetic mean of a non-empty sample. ``math.fsum`` is
    exactly rounded, so the result does not depend on summand order;
    a plain ``sum`` would round left to right."""
    return math.fsum(values) / len(values)


def summarize(values: "list[float]") -> SampleStats:
    """Mean, sample standard deviation, and extremes of *values*."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    count = len(values)
    average = mean(values)
    if count > 1:
        variance = math.fsum((v - average) ** 2 for v in values) / (count - 1)
    else:
        variance = 0.0
    return SampleStats(
        count=count,
        mean=average,
        stdev=math.sqrt(variance),
        minimum=min(values),
        maximum=max(values),
    )


@dataclass(frozen=True, slots=True)
class RepeatabilityResult:
    platform: str
    scenario: int
    table_size: int
    samples: tuple[float, ...]
    stats: SampleStats

    def is_repeatable(self, tolerance: float = 0.05) -> bool:
        """True when the coefficient of variation is within *tolerance*."""
        return self.stats.coefficient_of_variation <= tolerance


def repeatability_study(
    platform: str,
    scenario: int,
    seeds: "list[int] | tuple[int, ...]" = (1, 2, 3, 4, 5),
    table_size: int = 1000,
) -> RepeatabilityResult:
    """Run one scenario once per seed and summarize the metric."""
    if not seeds:
        raise ValueError("need at least one seed")
    samples = tuple(
        run_scenario(
            build_system(platform), scenario, table_size=table_size, seed=seed
        ).transactions_per_second
        for seed in seeds
    )
    return RepeatabilityResult(
        platform=platform,
        scenario=scenario,
        table_size=table_size,
        samples=samples,
        stats=summarize(list(samples)),
    )


def speedup(baseline: float, candidate: float) -> float:
    """candidate / baseline, guarding division by zero."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return candidate / baseline
