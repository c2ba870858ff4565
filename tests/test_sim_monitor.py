"""Unit tests for CPU and rate monitors."""

import pytest

from repro.sim.cpu import Priority, World
from repro.sim.monitor import CpuMonitor, RateMonitor, spread


class TestSpread:
    def test_within_one_bucket(self):
        assert list(spread(0.2, 0.7, 1.0)) == [(0, pytest.approx(0.5))]

    def test_across_buckets(self):
        chunks = list(spread(0.5, 2.5, 1.0))
        assert chunks == [
            (0, pytest.approx(0.5)),
            (1, pytest.approx(1.0)),
            (2, pytest.approx(0.5)),
        ]

    def test_exact_boundary(self):
        assert list(spread(1.0, 2.0, 1.0)) == [(1, pytest.approx(1.0))]

    def test_empty_interval(self):
        assert list(spread(1.0, 1.0, 1.0)) == []

    def test_custom_width(self):
        chunks = list(spread(0.0, 1.0, 0.5))
        assert [bucket for bucket, _dt in chunks] == [0, 1]


class TestCpuMonitor:
    def test_full_load_is_100_percent(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        monitor = CpuMonitor(machine)
        machine.new_task("t").submit(2.0)
        world.run()
        assert monitor.load_percent("t") == [(0.0, pytest.approx(100.0)),
                                             (1.0, pytest.approx(100.0))]

    def test_shared_load_is_50_percent(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        monitor = CpuMonitor(machine)
        machine.new_task("a").submit(1.0)
        machine.new_task("b").submit(1.0)
        world.run()
        assert monitor.load_percent("a") == [(0.0, pytest.approx(50.0)),
                                             (1.0, pytest.approx(50.0))]

    def test_percent_normalised_by_machine_speed(self):
        world = World()
        machine = world.new_machine("slow", cores=1, speed=0.1)
        monitor = CpuMonitor(machine)
        machine.new_task("t").submit(0.1)  # takes 1 virtual second
        world.run()
        assert monitor.load_percent("t") == [(0.0, pytest.approx(100.0))]

    def test_total_cpu_seconds(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        monitor = CpuMonitor(machine)
        machine.new_task("t").submit(1.5)
        world.run()
        assert monitor.total_cpu_seconds("t") == pytest.approx(1.5)

    def test_task_names_and_table(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        monitor = CpuMonitor(machine)
        machine.new_task("a").submit(0.5)
        machine.new_task("b").submit(0.5)
        world.run()
        assert monitor.task_names() == ["a", "b"]
        assert set(monitor.table()) == {"a", "b"}


class TestRateMonitor:
    def test_served_equals_offered_when_unloaded(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        load = machine.new_task("fwd", Priority.KERNEL)
        monitor = RateMonitor(machine, load, scale=1000.0)
        load.set_continuous_demand(0.3)
        world.run(until=3.0)
        series = monitor.series()
        assert len(series) == 3
        for _t, served in series:
            assert served == pytest.approx(300.0)
        assert monitor.loss_fraction() == pytest.approx(0.0, abs=1e-9)

    def test_loss_under_overload(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        load = machine.new_task("fwd", Priority.KERNEL, max_backlog=0.001)
        monitor = RateMonitor(machine, load, scale=1.0)
        load.set_continuous_demand(2.0)
        world.run(until=2.0)
        assert monitor.loss_fraction() == pytest.approx(0.5, abs=0.05)

    def test_only_monitored_task_recorded(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        load = machine.new_task("fwd", Priority.KERNEL)
        other = machine.new_task("other")
        monitor = RateMonitor(machine, load, scale=1.0)
        other.submit(1.0)
        world.run()
        assert monitor.series() == []
