"""Figure 6: CPU breakdown and forwarding rate, Pentium III, Scenario 8.

Three panels:

* (a) CPU load without cross-traffic (interrupt / system / user);
* (b) CPU load with 300 Mb/s of cross-traffic — interrupt processing
  rises to 20-30% of the CPU and extends the benchmark;
* (c) the forwarding rate during (b) — the rate dips below the offered
  300 Mb/s shortly after Phase 3 starts, because installing a large
  number of prefixes stalls the forwarding path despite its higher
  priority.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark import run_scenario
from repro.benchmark.harness import PhaseTrace
from repro.benchmark.statistics import mean
from repro.experiments.fig3 import series_to_lists
from repro.sim.monitor import CpuMonitor
from repro.systems import build_system

#: Figure 6's three CPU categories, mapped onto our task names.
CATEGORIES = {
    "interrupts": ("interrupts", "interrupts-xt"),
    "system": ("kernel-fib", "softnet-xt"),
    "user": ("xorp_bgp", "xorp_policy", "xorp_rib", "xorp_fea", "xorp_rtrmgr"),
}


def categorise(
    cpu_series: dict[str, list[tuple[float, float]]],
) -> dict[str, list[tuple[float, float]]]:
    """Aggregate per-task series into interrupt/system/user categories."""
    buckets = sorted({t for series in cpu_series.values() for t, _ in series})
    out: dict[str, list[tuple[float, float]]] = {}
    for category, names in CATEGORIES.items():
        lookup = [dict(cpu_series.get(name, [])) for name in names]
        out[category] = [
            (t, sum(table.get(t, 0.0) for table in lookup)) for t in buckets
        ]
    return out


@dataclass(slots=True)
class Fig6Result:
    table_size: int
    cross_mbps: float
    #: {(label): {category: [(t, %)]}} for labels "no-traffic", "with-traffic".
    cpu: dict[str, dict[str, list[tuple[float, float]]]] = field(default_factory=dict)
    forwarding: list[tuple[float, float]] = field(default_factory=list)
    phases: dict[str, list[PhaseTrace]] = field(default_factory=dict)
    duration: dict[str, float] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, object]:
        return {
            "experiment": "fig6",
            "table_size": self.table_size,
            "cross_mbps": self.cross_mbps,
            "duration": self.duration,
            "cpu": {
                label: series_to_lists(categories)
                for label, categories in self.cpu.items()
            },
            "forwarding": [[t, v] for t, v in self.forwarding],
            "interrupt_share": self.interrupt_share_during_run(),
            "min_forwarding_phase3": self.min_forwarding_in_phase3(),
        }

    def interrupt_share_during_run(self) -> float:
        """Mean interrupt CPU fraction over the loaded run (paper: 20-30%)."""
        series = self.cpu["with-traffic"]["interrupts"]
        end = self.duration["with-traffic"]
        samples = [v for t, v in series if t <= end]
        return mean(samples) / 100.0 if samples else 0.0

    def min_forwarding_in_phase3(self) -> float:
        phase3 = next(p for p in self.phases["with-traffic"] if p.phase == 3)
        rates = [v for t, v in self.forwarding if phase3.start <= t <= phase3.end]
        return min(rates) if rates else 0.0


def run_fig6(table_size: int = 2000, cross_mbps: float = 300.0, seed: int = 42) -> Fig6Result:
    result = Fig6Result(table_size=table_size, cross_mbps=cross_mbps)

    router = build_system("pentium3")
    monitor = CpuMonitor(router.machine)
    quiet = run_scenario(router, 8, table_size=table_size, seed=seed)
    result.cpu["no-traffic"] = categorise(monitor.table())
    result.phases["no-traffic"] = quiet.phases
    result.duration["no-traffic"] = quiet.phases[-1].end

    router = build_system("pentium3")
    monitor = CpuMonitor(router.machine)
    forwarding = router.watch_forwarding()
    loaded = run_scenario(
        router,
        8,
        table_size=table_size,
        cross_traffic_mbps=cross_mbps,
        settle_after=10.0,
        seed=seed,
    )
    result.cpu["with-traffic"] = categorise(monitor.table())
    result.phases["with-traffic"] = loaded.phases
    result.duration["with-traffic"] = loaded.phases[-1].end
    result.forwarding = forwarding.series()
    return result


def render(result: Fig6Result) -> str:
    lines = [
        f"Figure 6 reproduction: Pentium III, Scenario 8, "
        f"{result.cross_mbps:.0f} Mb/s cross-traffic (table size {result.table_size})"
    ]
    for label in ("no-traffic", "with-traffic"):
        lines.append(
            f"\n({label}) benchmark completes at {result.duration[label]:.1f}s"
        )
        for category, series in result.cpu[label].items():
            in_run = [v for t, v in series if t <= result.duration[label]]
            average = mean(in_run) if in_run else 0.0
            lines.append(f"  {category:10s}: mean {average:5.1f}%")
    lines.append(
        f"\ninterrupt share under load: "
        f"{100 * result.interrupt_share_during_run():.1f}% (paper: 20-30%)"
    )
    lines.append(
        f"slowdown from cross-traffic: "
        f"{result.duration['with-traffic'] / result.duration['no-traffic']:.2f}x"
    )
    lines.append(
        f"minimum forwarding rate during Phase 3: "
        f"{result.min_forwarding_in_phase3():.0f} Mb/s "
        f"(offered {result.cross_mbps:.0f} Mb/s — the Figure 6(c) dip)"
    )
    if result.forwarding:
        from repro.benchmark.charts import render_sparkline

        lines.append("forwarding rate over time (Fig. 6c):")
        lines.append("  " + render_sparkline(result.forwarding, width=70))
    return "\n".join(lines)
