"""Per-task virtual-CPU attribution: the top-style view.

The :class:`~repro.sim.monitor.CpuMonitor` knows *which task* burned CPU
in *which time bucket*; :func:`top_table` sums that into per-task CPU
seconds and share of the total — the ``top(1)`` view an operator of a
real router would reach for (paper Figure 6's per-process breakdown as
a table), and what ``bgpbench scenario --profile`` prints.

The monitor is an observe-only collector, so profiling a run never
changes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.monitor import CpuMonitor


@dataclass(slots=True)
class TopRow:
    """One task's line in the top-style view."""

    task: str
    cpu_seconds: float
    share: float


def top_table(monitor: "CpuMonitor") -> list[TopRow]:
    """Per-task totals, largest first (ties alphabetical)."""
    totals = {
        name: monitor.total_cpu_seconds(name) for name in monitor.task_names()
    }
    grand = math.fsum(totals.values())
    rows = [
        TopRow(name, seconds, seconds / grand if grand > 0 else 0.0)
        for name, seconds in totals.items()
    ]
    rows.sort(key=lambda row: (-row.cpu_seconds, row.task))
    return rows


def render_top(rows: "list[TopRow]") -> str:
    """The top-style text table."""
    if not rows:
        return "(no CPU activity)"
    width = max(len(row.task) for row in rows)
    lines = [f"{'TASK':<{width}}  {'CPU(s)':>10}  {'SHARE':>6}"]
    for row in rows:
        lines.append(
            f"{row.task:<{width}}  {row.cpu_seconds:>10.4f}  "
            f"{100 * row.share:>5.1f}%"
        )
    return "\n".join(lines)
