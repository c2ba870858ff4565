"""Unit tests for the fluid CPU model: sharing, priorities, SMT,
continuous loads, and lock coupling."""

import math

import pytest

from repro.sim.cpu import Job, Machine, Priority, Task, World


def make_world(**machine_kwargs):
    world = World()
    machine = world.new_machine("m", **machine_kwargs)
    return world, machine


class TestSingleCore:
    def test_single_job_duration(self):
        world, machine = make_world(cores=1)
        task = machine.new_task("t")
        done = []
        task.submit(2.5, lambda: done.append(world.sim.now))
        world.run()
        assert done == [2.5]

    def test_two_tasks_share_equally(self):
        world, machine = make_world(cores=1)
        a, b = machine.new_task("a"), machine.new_task("b")
        done = []
        a.submit(1.0, lambda: done.append(("a", world.sim.now)))
        b.submit(1.0, lambda: done.append(("b", world.sim.now)))
        world.run()
        assert done == [("a", 2.0), ("b", 2.0)]

    def test_unequal_jobs(self):
        world, machine = make_world(cores=1)
        a, b = machine.new_task("a"), machine.new_task("b")
        done = []
        a.submit(1.0, lambda: done.append(("a", world.sim.now)))
        b.submit(3.0, lambda: done.append(("b", world.sim.now)))
        world.run()
        # Shared until a finishes at t=2 (each at rate 0.5); b then runs
        # alone for its remaining 2.0 -> t=4.
        assert done == [("a", 2.0), ("b", 4.0)]

    def test_fifo_within_task(self):
        world, machine = make_world(cores=1)
        task = machine.new_task("t")
        done = []
        task.submit(1.0, lambda: done.append("first"))
        task.submit(1.0, lambda: done.append("second"))
        world.run()
        assert done == ["first", "second"]
        assert world.sim.now == 2.0

    def test_zero_cost_job_completes(self):
        world, machine = make_world(cores=1)
        task = machine.new_task("t")
        done = []
        task.submit(0.0, lambda: done.append(world.sim.now))
        world.run()
        assert done == [0.0]

    def test_speed_scales_execution(self):
        world, machine = make_world(cores=1, speed=4.0)
        task = machine.new_task("t")
        done = []
        task.submit(1.0, lambda: done.append(world.sim.now))
        world.run()
        assert done == [0.25]

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            Job(-1.0)

    @pytest.mark.parametrize("service", [math.nan, math.inf, -math.inf])
    def test_non_finite_service_rejected(self, service):
        # NaN used to complete in zero virtual time (``nan < 0`` is
        # false), inf to send the clock to infinity.
        with pytest.raises(ValueError):
            Job(service)
        with pytest.raises(ValueError):
            Task("t").submit(service)


class TestPriorities:
    def test_interrupt_preempts_user(self):
        world, machine = make_world(cores=1)
        irq = machine.new_task("irq", Priority.INTERRUPT)
        user = machine.new_task("user", Priority.USER)
        done = []
        user.submit(1.0, lambda: done.append(("user", world.sim.now)))
        irq.submit(1.0, lambda: done.append(("irq", world.sim.now)))
        world.run()
        assert done == [("irq", 1.0), ("user", 2.0)]

    def test_continuous_interrupt_load_slows_user(self):
        world, machine = make_world(cores=1)
        irq = machine.new_task("irq", Priority.INTERRUPT)
        irq.set_continuous_demand(0.25)
        user = machine.new_task("user")
        done = []
        user.submit(0.75, lambda: done.append(world.sim.now))
        world.run(until=10.0)
        assert done == [pytest.approx(1.0)]

    def test_kernel_between_interrupt_and_user(self):
        world, machine = make_world(cores=1)
        irq = machine.new_task("irq", Priority.INTERRUPT)
        kern = machine.new_task("kern", Priority.KERNEL)
        user = machine.new_task("user", Priority.USER)
        irq.set_continuous_demand(0.5)
        done = []
        kern.submit(0.25, lambda: done.append(("kern", world.sim.now)))
        user.submit(0.25, lambda: done.append(("user", world.sim.now)))
        world.run(until=10.0)
        # Kernel gets the 0.5 left by irq -> done at 0.5; user only then.
        assert done[0] == ("kern", pytest.approx(0.5))
        assert done[1] == ("user", pytest.approx(1.0))


class TestMultiCore:
    def test_parallel_execution(self):
        world, machine = make_world(cores=2)
        done = []
        for name in ("a", "b"):
            machine.new_task(name).submit(1.0, lambda n=name: done.append((n, world.sim.now)))
        world.run()
        assert done == [("a", 1.0), ("b", 1.0)]

    def test_single_task_cannot_use_two_cores(self):
        world, machine = make_world(cores=2)
        task = machine.new_task("t")
        done = []
        task.submit(1.0, lambda: done.append(world.sim.now))
        task.submit(1.0, lambda: done.append(world.sim.now))
        world.run()
        # Serial within the task: 2 seconds, not 1.
        assert done == [1.0, 2.0]

    def test_smt_capacity(self):
        machine = Machine("xeon", cores=2, threads_per_core=2, smt_efficiency=0.6)
        assert machine.capacity(1) == 1.0
        assert machine.capacity(2) == 2.0
        assert machine.capacity(3) == pytest.approx(1.0 + 1.2)
        assert machine.capacity(4) == pytest.approx(2.4)
        assert machine.capacity(10) == pytest.approx(2.4)

    def test_smt_slowdown_observable(self):
        world, machine = make_world(cores=1, threads_per_core=2, smt_efficiency=0.5)
        done = []
        for name in ("a", "b"):
            machine.new_task(name).submit(1.0, lambda n=name: done.append((n, world.sim.now)))
        world.run()
        # Both threads at 0.5 efficiency: each job takes 2.0.
        assert done == [("a", 2.0), ("b", 2.0)]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Machine("bad", cores=0)
        with pytest.raises(ValueError):
            Machine("bad", smt_efficiency=0.0)
        with pytest.raises(ValueError):
            Machine("bad", smt_efficiency=1.5)


class TestContinuousLoads:
    def test_satisfied_demand_no_backlog(self):
        world, machine = make_world(cores=1)
        load = machine.new_task("load", Priority.KERNEL)
        load.set_continuous_demand(0.4)
        world.run(until=5.0)
        assert load.backlog == pytest.approx(0.0, abs=1e-9)
        assert load.served_total == pytest.approx(2.0)
        assert load.dropped_total == 0.0

    def test_overload_drops(self):
        world, machine = make_world(cores=1)
        load = machine.new_task("load", Priority.KERNEL, max_backlog=0.01)
        load.set_continuous_demand(2.0)  # twice the capacity
        world.run(until=4.0)
        assert load.served_total == pytest.approx(4.0, rel=0.01)
        assert load.dropped_total == pytest.approx(4.0, rel=0.05)

    def test_background_demand_consumes_share(self):
        world, machine = make_world(cores=1)
        bg = machine.new_task("bg")
        bg.set_background_demand(0.25)
        worker = machine.new_task("worker")
        done = []
        worker.submit(0.75, lambda: done.append(world.sim.now))
        world.run(until=10.0)
        assert done == [pytest.approx(1.0)]

    def test_demand_validation(self):
        task = Task("t")
        with pytest.raises(ValueError):
            task.set_continuous_demand(-1.0)
        with pytest.raises(ValueError):
            task.set_background_demand(-0.1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_demand_rejected(self, rate):
        task = Task("t")
        task.set_continuous_demand(0.25)
        task.set_background_demand(0.125)
        with pytest.raises(ValueError):
            task.set_continuous_demand(rate)
        with pytest.raises(ValueError):
            task.set_background_demand(rate)
        assert (task.continuous_demand, task.background_demand) == (0.25, 0.125)

    @pytest.mark.parametrize("cap", [-0.001, math.nan])
    def test_backlog_cap_validation(self, cap):
        # A negative cap made an idle task "drop" work it never had.
        with pytest.raises(ValueError):
            Task("t", max_backlog=cap)


class TestLockCoupling:
    def test_blocked_task_starves_while_blocker_busy(self):
        world, machine = make_world(cores=1)
        blocker = machine.new_task("kfib", Priority.KERNEL)
        load = machine.new_task("softnet", Priority.KERNEL, max_backlog=0.001)
        load.blocked_by = blocker
        load.set_continuous_demand(0.3)
        blocker.submit(1.0)
        world.run(until=1.0)
        # While the blocker ran (a full second at full rate), the load
        # served nothing and dropped nearly all of its 0.3 demand.
        assert load.served_total < 0.05
        assert load.dropped_total > 0.25

    def test_blocked_task_recovers(self):
        world, machine = make_world(cores=1)
        blocker = machine.new_task("kfib", Priority.KERNEL)
        load = machine.new_task("softnet", Priority.KERNEL, max_backlog=0.001)
        load.blocked_by = blocker
        load.set_continuous_demand(0.3)
        blocker.submit(0.5)
        world.run(until=4.0)
        # After the blocker finishes at ~0.7s (sharing), the load serves
        # its full demand again.
        assert load.served_total == pytest.approx(0.3 * 4.0, abs=0.3)


class TestWorldControl:
    def test_idle_detection(self):
        world, machine = make_world(cores=1)
        task = machine.new_task("t")
        assert world.idle()
        task.submit(1.0)
        assert not world.idle()
        world.run()
        assert world.idle()

    def test_run_returns_final_time(self):
        world, machine = make_world(cores=1)
        machine.new_task("t").submit(2.0)
        assert world.run() == 2.0

    def test_event_and_job_interleaving(self):
        world, machine = make_world(cores=1)
        task = machine.new_task("t")
        log = []
        task.submit(2.0, lambda: log.append(("job", world.sim.now)))
        world.sim.schedule(1.0, lambda: log.append(("event", world.sim.now)))
        world.run()
        assert log == [("event", 1.0), ("job", 2.0)]

    def test_event_can_add_work_mid_run(self):
        world, machine = make_world(cores=1)
        task = machine.new_task("t")
        log = []
        world.sim.schedule(1.0, lambda: task.submit(1.0, lambda: log.append(world.sim.now)))
        world.run()
        assert log == [2.0]

    def test_duplicate_task_placement_rejected(self):
        world, machine = make_world(cores=1)
        task = machine.new_task("t")
        with pytest.raises(ValueError):
            machine.add_task(task)
