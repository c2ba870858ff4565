"""Figure 4: Pentium III CPU load with small versus large packets.

Scenario 1 (one prefix per UPDATE) against Scenario 2 (500 per UPDATE)
on the uni-core router. The paper's observation: with small packets
xorp_bgp, xorp_fea, and xorp_rib compete for the CPU throughout the
measurement phase; with large packets xorp_bgp front-loads its work and
then xorp_fea/xorp_rib take over — and the large-packet run finishes
sooner overall (higher transactions/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark import run_scenario
from repro.benchmark.statistics import mean
from repro.experiments.fig3 import XORP_PROCESSES
from repro.systems import build_system


@dataclass(slots=True)
class Fig4Result:
    """{scenario: {process: [(t, %)]}} plus run lengths."""

    table_size: int
    series: dict[int, dict[str, list[tuple[float, float]]]] = field(default_factory=dict)
    duration: dict[int, float] = field(default_factory=dict)
    tps: dict[int, float] = field(default_factory=dict)


def run_fig4(table_size: int = 2000, seed: int = 42) -> Fig4Result:
    result = Fig4Result(table_size=table_size)
    for scenario in (1, 2):
        outcome = run_scenario(
            build_system("pentium3"), scenario, table_size=table_size, seed=seed
        )
        result.series[scenario] = {
            process: outcome.cpu_series.get(process, [])
            for process in XORP_PROCESSES
        }
        result.duration[scenario] = outcome.duration
        result.tps[scenario] = outcome.transactions_per_second
    return result


def busy_overlap_fraction(
    series: dict[str, list[tuple[float, float]]],
    processes: tuple[str, ...] = ("xorp_bgp", "xorp_fea", "xorp_rib"),
    threshold: float = 5.0,
) -> float:
    """Fraction of samples where all *processes* are simultaneously above
    *threshold* percent — the "competing for the CPU" signature."""
    by_time: dict[float, int] = {}
    for process in processes:
        for t, load in series.get(process, []):
            if load >= threshold:
                by_time[t] = by_time.get(t, 0) + 1
    if not by_time:
        return 0.0
    competing = sum(1 for count in by_time.values() if count == len(processes))
    return competing / len(by_time)


def render(result: Fig4Result) -> str:
    lines = [
        f"Figure 4 reproduction: Pentium III CPU load, small vs large packets "
        f"(table size {result.table_size})"
    ]
    for scenario in (1, 2):
        label = "small packets (Scenario 1)" if scenario == 1 else "large packets (Scenario 2)"
        overlap = busy_overlap_fraction(result.series[scenario])
        lines.append(
            f"\n({label}) duration {result.duration[scenario]:.1f}s, "
            f"{result.tps[scenario]:.1f} tps, "
            f"bgp/fea/rib competing in {100 * overlap:.0f}% of samples"
        )
        for process in XORP_PROCESSES:
            series = result.series[scenario][process]
            if not series:
                lines.append(f"  {process:13s}: idle")
                continue
            lines.append(f"  {process:13s}: mean {mean([v for _, v in series]):5.1f}%")
    return "\n".join(lines)


def main(table_size: int = 2000) -> str:
    text = render(run_fig4(table_size))
    print(text)
    return text


if __name__ == "__main__":
    main()
