"""The top-style profile view: per-task totals and their rendering."""

import math

import pytest

from repro.telemetry.profile import render_top, top_table


class FakeCpuMonitor:
    """The slice of the CpuMonitor surface ``top_table`` reads."""

    def __init__(self, usage):
        self._usage = usage

    def task_names(self):
        names = set()
        for tasks in self._usage.values():
            names.update(tasks)
        return sorted(names)

    def total_cpu_seconds(self, name):
        return math.fsum(
            tasks.get(name, 0.0) for tasks in self._usage.values()
        )


class TestTopTable:
    def test_rows_sorted_by_cpu_then_name(self):
        monitor = FakeCpuMonitor(
            {0: {"bgpd": 0.4, "os": 0.1}, 1: {"bgpd": 0.2, "fib": 0.3}}
        )
        rows = top_table(monitor)
        assert [row.task for row in rows] == ["bgpd", "fib", "os"]
        assert rows[0].cpu_seconds == pytest.approx(0.6)
        assert math.fsum(row.share for row in rows) == pytest.approx(1.0)

    def test_empty_monitor_gives_empty_table(self):
        assert top_table(FakeCpuMonitor({})) == []


class TestRenderTop:
    def test_render(self):
        monitor = FakeCpuMonitor({0: {"bgpd": 0.6, "os": 0.2}})
        assert render_top(top_table(monitor)).splitlines() == [
            "TASK      CPU(s)   SHARE",
            "bgpd      0.6000   75.0%",
            "os        0.2000   25.0%",
        ]

    def test_empty_table_renders_placeholder(self):
        assert render_top(top_table(FakeCpuMonitor({}))) == "(no CPU activity)"
