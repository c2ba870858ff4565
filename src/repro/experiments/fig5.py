"""Figure 5: BGP performance under increasing cross-traffic.

One sub-plot per benchmark scenario: transactions/s (log scale in the
paper) versus offered cross-traffic from zero to each platform's
maximum forwarding rate. The shapes this reproduces:

* the IXP2400 is flat — forwarding runs on its packet processors;
* the Pentium III and Xeon decline gradually;
* the Cisco is flat for small packets (its paced input path is not
  CPU-bound) and collapses near its 78 Mb/s limit for large packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark import run_scenario
from repro.experiments.paperdata import PLATFORM_ORDER
from repro.systems import build_system
from repro.workload.crosstraffic import sweep_levels


@dataclass(slots=True)
class Fig5Result:
    """{scenario: {platform: [(mbps, tps)]}}."""

    table_size: int
    points: int
    series: dict[int, dict[str, list[tuple[float, float]]]] = field(default_factory=dict)

    def degradation(self, scenario: int, platform: str) -> float:
        """tps at max cross-traffic relative to tps with none."""
        curve = self.series[scenario][platform]
        baseline, loaded = curve[0][1], curve[-1][1]
        return loaded / baseline if baseline > 0 else 0.0


def run_fig5(
    table_size: int = 1500,
    points: int = 5,
    scenarios: "tuple[int, ...]" = tuple(range(1, 9)),
    platforms: "tuple[str, ...]" = PLATFORM_ORDER,
    seed: int = 42,
) -> Fig5Result:
    result = Fig5Result(table_size=table_size, points=points)
    for scenario in scenarios:
        per_platform: dict[str, list[tuple[float, float]]] = {}
        for platform in platforms:
            curve = []
            for mbps in sweep_levels(platform, points):
                outcome = run_scenario(
                    build_system(platform),
                    scenario,
                    table_size=table_size,
                    cross_traffic_mbps=mbps,
                    seed=seed,
                )
                curve.append((mbps, outcome.transactions_per_second))
            per_platform[platform] = curve
        result.series[scenario] = per_platform
    return result


def render(result: Fig5Result, charts: bool = True) -> str:
    from repro.benchmark.charts import render_chart

    lines = [
        f"Figure 5 reproduction: transactions/s vs cross-traffic "
        f"(table size {result.table_size})"
    ]
    for scenario, per_platform in sorted(result.series.items()):
        lines.append(f"\nBenchmark {scenario}:")
        for platform, curve in per_platform.items():
            rendered = "  ".join(f"{mbps:.0f}M:{tps:.1f}" for mbps, tps in curve)
            retained = 100 * result.degradation(scenario, platform)
            lines.append(f"  {platform:9s} {rendered}   (retains {retained:.0f}%)")
        if charts:
            lines.append(
                render_chart(
                    per_platform,
                    title=f"  Benchmark {scenario} (log y, as in the paper)",
                    log_y=True,
                    x_label="cross traffic (Mb/s)",
                    y_label="transactions/s",
                    height=12,
                )
            )
    return "\n".join(lines)


def main(table_size: int = 1500) -> str:
    text = render(run_fig5(table_size))
    print(text)
    return text


if __name__ == "__main__":
    main()
