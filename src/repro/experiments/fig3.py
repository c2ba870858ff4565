"""Figure 3: activity of the five XORP processes during Scenario 6.

One sub-figure per XORP platform (Pentium III, Xeon, IXP2400): CPU load
per process, per second, across all three benchmark phases. The shapes
the paper highlights and this runner reproduces:

* on the uni-core Pentium III all processes compete for one CPU;
* on the Xeon the total exceeds 100% (loads of all threads are added)
  and phases finish roughly an order of magnitude sooner;
* on the IXP2400 everything takes half an hour and xorp_rtrmgr consumes
  a considerable share of the underpowered XScale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark import run_scenario
from repro.benchmark.harness import PhaseTrace
from repro.benchmark.statistics import mean
from repro.systems import build_system

XORP_PROCESSES = ("xorp_bgp", "xorp_fea", "xorp_rib", "xorp_policy", "xorp_rtrmgr")
FIG3_PLATFORMS = ("pentium3", "xeon", "ixp2400")


@dataclass(slots=True)
class Fig3Result:
    """Per-platform process-load series: {platform: {process: [(t, %)]}}."""

    table_size: int
    scenario: int
    series: dict[str, dict[str, list[tuple[float, float]]]] = field(default_factory=dict)
    phases: dict[str, list[PhaseTrace]] = field(default_factory=dict)
    total_time: dict[str, float] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, object]:
        return {
            "experiment": "fig3",
            "table_size": self.table_size,
            "scenario": self.scenario,
            "total_time": self.total_time,
            "series": {
                platform: series_to_lists(processes)
                for platform, processes in self.series.items()
            },
            "phases": {
                platform: [
                    {"phase": p.phase, "start": p.start, "end": p.end}
                    for p in phases
                ]
                for platform, phases in self.phases.items()
            },
        }


def series_to_lists(
    series: dict[str, list[tuple[float, float]]],
) -> dict[str, list[list[float]]]:
    """``{name: [(x, y)]}`` with each point as a JSON list."""
    return {name: [[t, v] for t, v in points] for name, points in series.items()}


def run_fig3(table_size: int = 2000, scenario: int = 6, seed: int = 42) -> Fig3Result:
    result = Fig3Result(table_size=table_size, scenario=scenario)
    for platform in FIG3_PLATFORMS:
        outcome = run_scenario(
            build_system(platform), scenario, table_size=table_size, seed=seed
        )
        result.series[platform] = {
            process: outcome.cpu_series.get(process, [])
            for process in XORP_PROCESSES
        }
        result.phases[platform] = outcome.phases
        result.total_time[platform] = outcome.phases[-1].end
    return result


def render(result: Fig3Result) -> str:
    lines = [
        f"Figure 3 reproduction: XORP process activity, Scenario "
        f"{result.scenario}, table size {result.table_size}"
    ]
    for platform, processes in result.series.items():
        total = result.total_time[platform]
        lines.append(f"\n({platform}) total benchmark time: {total:.1f} virtual seconds")
        for phase in result.phases[platform]:
            lines.append(
                f"  phase {phase.phase}: {phase.start:.1f}s - {phase.end:.1f}s"
            )
        for process in XORP_PROCESSES:
            series = processes[process]
            if not series:
                lines.append(f"  {process:13s}: idle")
                continue
            peak = max(v for _, v in series)
            average = mean([v for _, v in series])
            lines.append(
                f"  {process:13s}: peak {peak:5.1f}%  mean {average:5.1f}%  "
                f"({len(series)} samples)"
            )
    return "\n".join(lines)
