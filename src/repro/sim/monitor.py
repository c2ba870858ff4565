"""CPU and rate monitoring: the time series behind Figures 3, 4, and 6.

:class:`CpuMonitor` attaches to a machine and accumulates per-task CPU
seconds into fixed-width time buckets — exactly what the paper plots as
"CPU load (percent)" per process per second. :class:`RateMonitor`
tracks the served versus offered work of a continuous load (the
forwarding path), yielding the forwarding-rate-over-time curve of
Figure 6(c). Both split every recorded interval with :func:`spread`,
so their bucket edges behave identically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

from repro.sim.cpu import Machine, Task

#: Width of every monitor bucket, in virtual seconds: the paper plots
#: load and forwarding rate per second.
BUCKET_WIDTH = 1.0


def spread(start: float, end: float, width: float) -> Sequence[tuple[int, float]]:
    """Split ``[start, end)`` at bucket boundaries of *width*; return
    ``(bucket_index, overlap_seconds)`` pairs in bucket order.

    The interval is half-open: an interval ending exactly on a bucket
    edge never reaches the bucket starting at that edge, and a zero- (or
    negative-) width interval gives nothing. Every overlap is strictly
    positive and the overlaps sum to ``end - start``.

    The fluid CPU loop reaches this for every served task on every step,
    and a step of a per-packet run lies inside one bucket: that case is
    the loop's first iteration (``min(boundary, end) - start``), answered
    without the loop.
    """
    if end <= start:
        return ()
    index = int(start // width)
    if end <= (index + 1) * width:
        return ((index, end - start),)
    pieces = []
    cursor = start
    while cursor < end:
        boundary = (index + 1) * width
        upper = min(boundary, end)
        pieces.append((index, upper - cursor))
        cursor = upper
        index += 1
    return pieces


class CounterRegistry(Protocol):
    """Where a bound monitor publishes: the ``counter`` half of
    :class:`repro.telemetry.metrics.MetricRegistry`, named by shape so
    ``sim`` imports nothing from the observer above it."""

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Any: ...


class CpuMonitor:
    """Per-bucket, per-task CPU-seconds accounting for one machine.

    When bound to a :class:`~repro.telemetry.metrics.MetricRegistry`
    (``bind_registry``), every recorded interval also publishes to the
    ``repro_cpu_seconds_total{machine,task}`` counter — observe-only, so
    binding never changes results.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self._usage: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._counter = None
        machine.monitors.append(self)

    def bind_registry(self, registry: "CounterRegistry | None") -> None:
        """Start (or, with ``None``, stop) publishing into *registry*."""
        if registry is None:
            self._counter = None
            return
        self._counter = registry.counter(
            "repro_cpu_seconds_total",
            "virtual CPU seconds served, by machine and task",
            ("machine", "task"),
        )

    def record(self, task: Task, start: float, end: float, served: float) -> None:
        if served <= 0.0:
            return
        if self._counter is not None:
            self._counter.inc(served, machine=self.machine.name, task=task.name)
        duration = end - start
        for bucket, overlap in spread(start, end, BUCKET_WIDTH):
            self._usage[bucket][task.name] += served * overlap / duration

    def load_percent(self, task_name: str) -> list[tuple[float, float]]:
        """(bucket_start_time, load%) series for one task. 100% = one of
        *this machine's* cores fully busy, matching the paper's axes
        (the Xeon plot sums all threads and exceeds 100%)."""
        scale = 100.0 / (BUCKET_WIDTH * self.machine.speed)
        series = []
        for bucket in sorted(self._usage):
            usage = self._usage[bucket].get(task_name, 0.0)
            series.append((bucket * BUCKET_WIDTH, usage * scale))
        return series

    def bucket_usage(self) -> dict[int, dict[str, float]]:
        """Copy of the raw (bucket_index → task → cpu-seconds) table:
        the monitor's whole state as one comparable value."""
        return {bucket: dict(tasks) for bucket, tasks in self._usage.items()}

    def task_names(self) -> list[str]:
        names = {name for bucket in self._usage.values() for name in bucket}
        return sorted(names)

    def total_cpu_seconds(self, task_name: str) -> float:
        return sum(bucket.get(task_name, 0.0) for bucket in self._usage.values())

    def table(self) -> dict[str, list[tuple[float, float]]]:
        """All per-task series, keyed by task name."""
        return {name: self.load_percent(name) for name in self.task_names()}


@dataclass(slots=True)
class _RateSample:
    served: float = 0.0
    offered: float = 0.0
    covered: float = 0.0


class RateMonitor:
    """Served-vs-offered tracking for one continuous-load task.

    ``scale`` converts cpu-seconds of served work into the reported
    unit — for the forwarding path, megabits (so the series reads in
    Mb/s, buckets being one second wide).
    """

    def __init__(self, machine: Machine, task: Task, scale: float = 1.0):
        self.task = task
        self.scale = scale
        self._samples: dict[int, _RateSample] = defaultdict(_RateSample)
        self._served_counter = None
        self._offered_counter = None
        machine.monitors.append(self)

    def bind_registry(self, registry: "CounterRegistry | None") -> None:
        """Start (or, with ``None``, stop) publishing served/offered work
        (in scaled units) into *registry*."""
        if registry is None:
            self._served_counter = None
            self._offered_counter = None
            return
        self._served_counter = registry.counter(
            "repro_forwarding_served_total",
            "forwarding work served, in the monitor's scaled units",
            ("task",),
        )
        self._offered_counter = registry.counter(
            "repro_forwarding_offered_total",
            "forwarding work offered, in the monitor's scaled units",
            ("task",),
        )

    def record(self, task: Task, start: float, end: float, served: float) -> None:
        if task is not self.task:
            return
        demand = task.continuous_demand + task.background_demand
        duration = end - start
        if self._served_counter is not None and served > 0.0:
            self._served_counter.inc(self.scale * served, task=task.name)
        if self._offered_counter is not None and demand * duration > 0.0:
            self._offered_counter.inc(self.scale * demand * duration, task=task.name)
        for bucket, overlap in spread(start, end, BUCKET_WIDTH):
            sample = self._samples[bucket]
            sample.served += served * overlap / duration
            sample.offered += demand * overlap
            sample.covered += overlap

    def series(self) -> list[tuple[float, float]]:
        """(bucket_start_time, served_rate_in_scaled_units) series.
        Rates are normalised by the covered portion of each bucket so a
        partially observed trailing bucket is not under-reported."""
        out = []
        for bucket in sorted(self._samples):
            sample = self._samples[bucket]
            if sample.covered <= 0:
                continue
            out.append(
                (bucket * BUCKET_WIDTH, self.scale * sample.served / sample.covered)
            )
        return out

    def loss_fraction(self) -> float:
        """Overall fraction of offered work not served."""
        served = sum(sample.served for sample in self._samples.values())
        offered = sum(sample.offered for sample in self._samples.values())
        if offered <= 0:
            return 0.0
        return max(0.0, 1.0 - served / offered)
