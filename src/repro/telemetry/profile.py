"""Per-operation virtual-CPU attribution: top- and flame-style views.

The :class:`~repro.sim.monitor.CpuMonitor` knows *which task* burned CPU
in *which time bucket*; the tracer's phase spans know *which benchmark
operation* owned each stretch of virtual time. Merging the two yields
the profile views an operator of a real router would reach for:

* :func:`top_table` — per-task CPU seconds and share of the total, the
  ``top(1)`` view (paper Figure 6's per-process breakdown as a table);
* :func:`attribute_phases` — CPU seconds per (phase, task), splitting
  each monitor bucket across the phase spans that overlap it (usage is
  taken as uniform within a bucket, the monitor's own granularity);
* :func:`folded_stacks` — span self-time aggregated by root→leaf path
  in the standard folded format flame-graph tooling consumes.

All inputs are observe-only collectors, so profiling a run never
changes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.sim.buckets import overlap

if TYPE_CHECKING:
    from repro.sim.monitor import CpuMonitor
    from repro.telemetry.spans import Span

#: Attribution key for CPU burned outside every phase span (setup,
#: settle tails, cross-traffic after the measured phase).
UNPHASED = "(unphased)"


@dataclass(slots=True)
class TopRow:
    """One task's line in the top-style view."""

    task: str
    cpu_seconds: float
    share: float

    def to_jsonable(self) -> dict[str, object]:
        return {"task": self.task, "cpu_seconds": self.cpu_seconds, "share": self.share}


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


def attribute_phases(
    monitor: "CpuMonitor", spans: "Sequence[Span]"
) -> dict[tuple[str, str], float]:
    """CPU seconds per (phase_name, task), splitting each monitor bucket
    across overlapping phase spans; the remainder books to
    :data:`UNPHASED`. Sums exactly (fsum) to the monitor's totals."""
    phases = [
        span for span in spans if span.category == "phase" and span.end is not None
    ]
    width = monitor.bucket_width
    parts: dict[tuple[str, str], list[float]] = {}
    for bucket, usage in sorted(monitor.bucket_usage().items()):
        lo = bucket * width
        hi = lo + width
        for task, seconds in sorted(usage.items()):
            remaining = 1.0
            for span in phases:
                fraction = overlap(lo, hi, span.start, span.end) / width
                if fraction <= 0.0:
                    continue
                fraction = min(fraction, remaining)
                remaining -= fraction
                parts.setdefault((span.name, task), []).append(seconds * fraction)
                if remaining <= 0.0:
                    break
            if remaining > 0.0:
                parts.setdefault((UNPHASED, task), []).append(seconds * remaining)
    return {key: math.fsum(values) for key, values in sorted(parts.items())}


def folded_stacks(spans: "Sequence[Span]") -> dict[str, float]:
    """Aggregate span *self time* by ``root;child;leaf`` path — the
    folded text format flame-graph renderers read. Self time is a
    span's duration minus its children's, clamped at zero (children may
    tile their parent exactly)."""
    by_id = {span.span_id: span for span in spans}
    child_time: dict[int, list[float]] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            child_time.setdefault(span.parent_id, []).append(span.duration)

    paths: dict[int, str] = {}

    def path_of(span: "Span") -> str:
        cached = paths.get(span.span_id)
        if cached is not None:
            return cached
        if span.parent_id is not None and span.parent_id in by_id:
            path = f"{path_of(by_id[span.parent_id])};{span.name}"
        else:
            path = span.name
        paths[span.span_id] = path
        return path

    folded: dict[str, list[float]] = {}
    for span in spans:
        self_time = span.duration - math.fsum(child_time.get(span.span_id, ()))
        folded.setdefault(path_of(span), []).append(max(0.0, self_time))
    return {path: math.fsum(values) for path, values in sorted(folded.items())}


@dataclass(slots=True)
class ProfileReport:
    """The merged profile for one instrumented run."""

    top: list[TopRow] = field(default_factory=list)
    phases: dict[tuple[str, str], float] = field(default_factory=dict)
    flame: dict[str, float] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, object]:
        return {
            "top": [row.to_jsonable() for row in self.top],
            "phases": [
                {"phase": phase, "task": task, "cpu_seconds": seconds}
                for (phase, task), seconds in sorted(self.phases.items())
            ],
            "flame": dict(sorted(self.flame.items())),
        }

    def render_top(self) -> str:
        """The top-style text table."""
        if not self.top:
            return "(no CPU activity)"
        width = max(len(row.task) for row in self.top)
        lines = [f"{'TASK':<{width}}  {'CPU(s)':>10}  {'SHARE':>6}"]
        for row in self.top:
            lines.append(
                f"{row.task:<{width}}  {row.cpu_seconds:>10.4f}  "
                f"{100 * row.share:>5.1f}%"
            )
        return "\n".join(lines)

    def render_flame(self) -> str:
        """Folded stacks, one ``path value`` line per aggregate."""
        return "\n".join(
            f"{path} {seconds:.9f}" for path, seconds in self.flame.items()
        )


def build_profile(monitor: "CpuMonitor", spans: "Sequence[Span]") -> ProfileReport:
    """Merge one CPU monitor with one trace into a :class:`ProfileReport`."""
    return ProfileReport(
        top=top_table(monitor),
        phases=attribute_phases(monitor, spans),
        flame=folded_stacks(spans),
    )
