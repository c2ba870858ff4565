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
from repro.experiments.fig3 import XORP_PROCESSES, series_to_lists
from repro.sim.monitor import CpuMonitor
from repro.systems import build_system

#: The processes whose simultaneous load is the small-packet signature,
#: and the load (percent) at which a process counts as busy.
COMPETING = ("xorp_bgp", "xorp_fea", "xorp_rib")
BUSY_PERCENT = 5.0


@dataclass(slots=True)
class Fig4Result:
    """{scenario: {process: [(t, %)]}} plus run lengths."""

    table_size: int
    series: dict[int, dict[str, list[tuple[float, float]]]] = field(default_factory=dict)
    duration: dict[int, float] = field(default_factory=dict)
    tps: dict[int, float] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, object]:
        return {
            "experiment": "fig4",
            "table_size": self.table_size,
            "duration": {str(s): d for s, d in self.duration.items()},
            "tps": {str(s): v for s, v in self.tps.items()},
            "series": {
                str(scenario): series_to_lists(processes)
                for scenario, processes in self.series.items()
            },
        }


def run_fig4(table_size: int = 2000, seed: int = 42) -> Fig4Result:
    result = Fig4Result(table_size=table_size)
    for scenario in (1, 2):
        router = build_system("pentium3")
        monitor = CpuMonitor(router.machine)
        outcome = run_scenario(router, scenario, table_size=table_size, seed=seed)
        loads = monitor.table()
        result.series[scenario] = {
            process: loads.get(process, []) for process in XORP_PROCESSES
        }
        result.duration[scenario] = outcome.duration
        result.tps[scenario] = outcome.transactions_per_second
    return result


def busy_overlap_fraction(series: dict[str, list[tuple[float, float]]]) -> float:
    """Fraction of samples where all of :data:`COMPETING` are
    simultaneously at or above :data:`BUSY_PERCENT` percent — the
    "competing for the CPU" signature."""
    by_time: dict[float, int] = {}
    for process in COMPETING:
        for t, load in series.get(process, []):
            if load >= BUSY_PERCENT:
                by_time[t] = by_time.get(t, 0) + 1
    if not by_time:
        return 0.0
    competing = sum(1 for count in by_time.values() if count == len(COMPETING))
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
