"""World-level simulation tests: multiple machines, guards, and
interactions the single-machine tests don't cover."""

import pytest

from repro.sim.cpu import Machine, Priority, Task, World
from repro.sim.monitor import CpuMonitor


class TestMultiMachine:
    def test_machines_are_independent(self):
        """Load on one machine must not slow another (the IXP2400's
        offload property)."""
        world = World()
        control = world.new_machine("control", cores=1)
        dataplane = world.new_machine("dataplane", cores=1)
        busy = dataplane.new_task("pp", Priority.KERNEL)
        busy.set_continuous_demand(0.99)
        worker = control.new_task("bgp")
        done = []
        worker.submit(1.0, lambda: done.append(world.sim.now))
        world.run(until=5.0)
        assert done == [pytest.approx(1.0)]

    def test_cross_machine_job_chains(self):
        """A completion on one machine can enqueue work on another."""
        world = World()
        a = world.new_machine("a", cores=1)
        b = world.new_machine("b", cores=1, speed=2.0)
        task_a = a.new_task("first")
        task_b = b.new_task("second")
        done = []
        task_a.submit(1.0, lambda: task_b.submit(1.0, lambda: done.append(world.sim.now)))
        world.run()
        assert done == [pytest.approx(1.5)]  # 1.0 on a + 0.5 on b

    def test_monitors_scoped_per_machine(self):
        world = World()
        a = world.new_machine("a", cores=1)
        b = world.new_machine("b", cores=1)
        monitor_a = CpuMonitor(a)
        monitor_b = CpuMonitor(b)
        a.new_task("only-a").submit(1.0)
        world.run()
        assert monitor_a.task_names() == ["only-a"]
        assert monitor_b.task_names() == []


class TestGuards:
    def test_livelock_guard_raises(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        task = machine.new_task("t")

        def respawn():
            task.submit(0.0, respawn)  # zero-cost self-respawning job

        task.submit(0.0, respawn)
        with pytest.raises(RuntimeError, match="max_steps"):
            world.run(max_steps=1000)

    def test_max_steps_allows_going_idle_on_the_last_step(self):
        """One job takes two steps: run it, then find nothing left. The
        guard is for a loop cut off while still progressing, not for one
        that went idle on exactly its last permitted step."""
        world = World()
        world.new_machine("m", cores=1).new_task("t").submit(1.0)
        assert world.run(max_steps=2) == pytest.approx(1.0)

    def test_max_steps_cuts_off_a_run_still_progressing(self):
        world = World()
        world.new_machine("m", cores=1).new_task("t").submit(1.0)
        with pytest.raises(RuntimeError, match="max_steps"):
            world.run(max_steps=1)

    def test_run_until_past_all_work(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        machine.new_task("t").submit(1.0)
        assert world.run(until=10.0) == 10.0

    @pytest.mark.parametrize("machines", [0, 1])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected_before_anything_fires(self, bad, machines):
        # until=nan used to be ignored (every event fired); until=inf
        # left sim.now at inf, so the next schedule() raised instead.
        world = World()
        done = []
        if machines:
            world.new_machine("m", cores=1).new_task("t").submit(1.0, lambda: done.append("job"))
        world.sim.schedule(1.0, lambda: done.append("event"))
        with pytest.raises(ValueError, match=f"non-finite run horizon: {bad}"):
            world.run(until=bad)
        assert (done, world.sim.now) == ([], 0.0)
        assert world.run() == 1.0
        assert sorted(done) == ["event", "job"][: 1 + machines]

    def test_until_before_completion_freezes_job(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        task = machine.new_task("t")
        done = []
        task.submit(2.0, lambda: done.append(world.sim.now))
        world.run(until=1.0)
        assert done == []
        assert task.current_job.remaining == pytest.approx(1.0)
        world.run()
        assert done == [pytest.approx(2.0)]


class TestBacklogDynamics:
    def test_backlog_drains_after_overload_burst(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        load = machine.new_task("load", Priority.KERNEL, max_backlog=10.0)
        load.set_continuous_demand(2.0)  # 2x overload
        world.run(until=3.0)
        assert load.backlog > 2.0
        load.set_continuous_demand(0.0)
        world.run(until=20.0)
        assert load.backlog == pytest.approx(0.0, abs=1e-6)

    def test_priority_inversion_absent(self):
        """A kernel job never waits behind user work."""
        world = World()
        machine = world.new_machine("m", cores=1)
        user = machine.new_task("user", Priority.USER)
        kern = machine.new_task("kern", Priority.KERNEL)
        order = []
        user.submit(1.0, lambda: order.append("user"))
        world.sim.schedule(0.1, lambda: kern.submit(0.2, lambda: order.append("kern")))
        world.run()
        assert order == ["kern", "user"]

    def test_blocked_by_chain_releases_in_order(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        blocker = machine.new_task("kfib", Priority.KERNEL)
        load = machine.new_task("softnet", Priority.KERNEL, max_backlog=100.0)
        load.blocked_by = blocker
        load.set_continuous_demand(0.1)
        blocker.submit(1.0)
        world.run(until=1.0)
        backlog_at_release = load.backlog
        assert backlog_at_release == pytest.approx(0.1, abs=0.02)
        world.run(until=5.0)
        assert load.backlog < backlog_at_release
