"""The memoised rate plan against the loop it replaced.

``Machine.plan`` puts a memo in front of ``Machine.compute_rates``, keyed
on the scheduling state, and ``World`` walks only the tasks a plan marks
active. Both are pure performance changes, so this suite holds them to
exact (``==`` on floats) equality with

* a fresh ``compute_rates()`` at every step of a run, and
* ``ReferenceWorld`` — the run loop as it stood before the memo, kept
  here verbatim: every task of every machine visited on every step, the
  rates recomputed from scratch —

over random machines and task mixes that are mutated mid-run the way
callers mutate them: by direct attribute assignment (``blocked_by``,
demands, backlog, priority, machine speed) and by ``add_task``. The
hygiene tests pin what keeps the memo safe to leave on: bounded size,
dropped when the task list changes, absent from machine-less worlds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import cpu
from repro.sim.cpu import Machine, Priority, Task, World
from repro.sim.monitor import CpuMonitor, RateMonitor

_EPS = cpu._EPS


class ReferenceWorld(World):
    """``World``'s loop before the memo (PR 11's ``repro.sim.cpu``)."""

    def run(self, until=None, max_steps=50_000_000):
        steps = 0
        while steps < max_steps:
            steps += 1
            progressed = self._step(until)
            if not progressed:
                break
        if steps >= max_steps:
            raise RuntimeError("simulation exceeded max_steps — likely a livelock")
        return self.sim.now

    def _step(self, until):
        rates = {}
        for machine in self.machines:
            rates.update(machine.compute_rates())

        next_event = self.sim.peek_time()
        horizon = self._next_completion(rates)
        target = min(
            t
            for t in (next_event, horizon, until)
            if t is not None
        ) if (next_event is not None or horizon is not None or until is not None) else None

        if target is None:
            return False
        if target > self.sim.now:
            self._advance(rates, self.sim.now, target)
            self.sim.advance_to(target)
        fired = self.sim.fire_due(self.sim.now)
        completed = self._fire_completions(rates)
        if fired == 0 and completed == 0 and target == self.sim.now and until is not None and self.sim.now >= until:
            return False
        if fired == 0 and completed == 0 and next_event is None and horizon is None:
            return False
        return True

    def _next_completion(self, rates):
        soonest = None
        for task, rate in rates.items():
            job = task.current_job
            if job is not None:
                if job.remaining <= _EPS:
                    return self.sim.now
                if rate <= _EPS:
                    continue
                when = self.sim.now + job.remaining / rate
            elif task.backlog > _EPS and rate > task.continuous_demand + task.background_demand + _EPS:
                drain = rate - task.continuous_demand - task.background_demand
                when = self.sim.now + task.backlog / drain
            else:
                continue
            if soonest is None or when < soonest:
                soonest = when
        return soonest

    def _advance(self, rates, start, end):
        dt = end - start
        if dt <= 0:
            return
        for machine in self.machines:
            recorders = [monitor.record for monitor in machine.monitors]
            for task in machine.tasks:
                rate = rates.get(task, 0.0)
                served = rate * dt
                job = task.current_job
                if job is not None:
                    job.remaining -= served
                else:
                    demand_in = (task.continuous_demand + task.background_demand) * dt
                    backlog = task.backlog + demand_in - served
                    if backlog < 0.0:
                        served = task.backlog + demand_in
                        backlog = 0.0
                    dropped = 0.0
                    if backlog > task.max_backlog:
                        dropped = backlog - task.max_backlog
                        backlog = task.max_backlog
                    task.backlog = backlog
                    task.served_total += served
                    task.dropped_total += dropped
                task.busy_time += served
                if served > 0 or rate > 0 or task.continuous_demand > 0:
                    for record in recorders:
                        record(task, start, end, served)

    def _fire_completions(self, rates):
        completed = 0
        for machine in self.machines:
            for task in machine.tasks:
                budget = task.queue_length()
                while budget > 0:
                    job = task.current_job
                    if job is None or job.remaining > _EPS:
                        break
                    task._pop_job()
                    completed += 1
                    budget -= 1
                    if job.callback is not None:
                        job.callback()
        return completed


class CheckedWorld(World):
    """The real loop, with the memo compared to the allocator — and the
    plan's three views to their definitions — before every step."""

    def _step(self, until):
        for machine in self.machines:
            plan = machine.plan()
            fresh = machine.compute_rates()
            assert plan.rates == fresh
            assert machine.plan() is plan  # the second lookup is a hit
            assert plan.jobs == tuple(
                (task, fresh[task])
                for task in machine.tasks
                if task in fresh and task.current_job is not None
            )
            assert plan.drains == tuple(
                (task, fresh[task] - task.continuous_demand - task.background_demand)
                for task in machine.tasks
                if task in fresh
                and task.current_job is None
                and task.backlog > _EPS
                and fresh[task] > task.continuous_demand + task.background_demand + _EPS
            )
            assert plan.active == tuple(
                (task, fresh.get(task, 0.0), task.current_job is not None)
                for task in machine.tasks
                if fresh.get(task, 0.0) != 0.0
                or task.continuous_demand != 0.0
                or task.background_demand != 0.0
                or task.backlog != 0.0
            )
        return super()._step(until)


# -- scenario descriptions: plain data, so each can be built twice ------------

SERVICES = [0.0, 1e-13, 0.001, 0.01, 0.1, 0.5]
DEMANDS = [0.0, 0.1, 0.3, 0.7, 1.5]
BACKGROUND = [0.0, 0.002, 0.05]
BACKLOGS = [0.0, 1e-13, 0.01]
CAPS = [0.0, 0.001, 0.05, 10.0]
TIMES = st.integers(min_value=0, max_value=40).map(lambda tick: tick * 0.05)

task_specs = st.fixed_dictionaries(
    {
        "priority": st.sampled_from(list(Priority)),
        "max_backlog": st.sampled_from(CAPS),
        "jobs": st.lists(st.sampled_from(SERVICES), max_size=4),
        "continuous": st.sampled_from(DEMANDS),
        "background": st.sampled_from(BACKGROUND),
        "backlog": st.sampled_from(BACKLOGS),
        "blocked_by": st.none() | st.integers(min_value=0, max_value=5),
    }
)

machine_specs = st.fixed_dictionaries(
    {
        "cores": st.integers(min_value=1, max_value=3),
        "threads_per_core": st.integers(min_value=1, max_value=2),
        "smt_efficiency": st.sampled_from([0.5, 0.6, 0.75, 1.0]),
        "speed": st.sampled_from([0.5, 1.0, 1.3, 2.0]),
        "tasks": st.lists(task_specs, min_size=1, max_size=6),
    }
)

#: (kind, value): what an event does to the task (or machine) it picks.
mutations = st.one_of(
    st.tuples(st.just("continuous"), st.sampled_from(DEMANDS)),
    st.tuples(st.just("background"), st.sampled_from(BACKGROUND)),
    st.tuples(st.just("backlog"), st.sampled_from(BACKLOGS)),
    st.tuples(st.just("blocked_by"), st.none() | st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("submit"), st.sampled_from(SERVICES)),
    st.tuples(st.just("priority"), st.sampled_from(list(Priority))),
    st.tuples(st.just("speed"), st.sampled_from([0.5, 1.0, 1.3, 2.0])),
    st.tuples(st.just("add_task"), task_specs),
)

event_specs = st.tuples(
    TIMES,
    st.integers(min_value=0, max_value=1),  # machine (modulo how many there are)
    st.integers(min_value=0, max_value=5),  # task (modulo)
    mutations,
)

scenarios = st.fixed_dictionaries(
    {
        "machines": st.lists(machine_specs, min_size=1, max_size=2),
        "events": st.lists(event_specs, max_size=12),
    }
)

HORIZON = 2.5


def place_task(world, machine, spec, log):
    task = machine.new_task(
        f"t{len(machine.tasks)}", spec["priority"], max_backlog=spec["max_backlog"]
    )
    # State goes in the way callers outside the class put it: attribute
    # writes the memo is never told about.
    task.continuous_demand = spec["continuous"]
    task.background_demand = spec["background"]
    task.backlog = spec["backlog"]
    if spec["blocked_by"] is not None:
        task.blocked_by = machine.tasks[spec["blocked_by"] % len(machine.tasks)]
    for service in spec["jobs"]:
        submit(world, task, service, log)
    return task


def submit(world, task, service, log):
    task.submit(service, lambda: log.append((world.sim.now, task.name)))


def apply(world, machine, task, kind, value, log):
    if kind == "continuous":
        task.continuous_demand = value
    elif kind == "background":
        task.background_demand = value
    elif kind == "backlog":
        task.backlog = value
    elif kind == "blocked_by":
        task.blocked_by = None if value is None else machine.tasks[value % len(machine.tasks)]
    elif kind == "submit":
        submit(world, task, value, log)
    elif kind == "priority":
        task.priority = value
    elif kind == "speed":
        machine.speed = value
    elif kind == "add_task":
        place_task(world, machine, value, log)


def build(world_class, scenario):
    world = world_class()
    log = []
    monitors = []
    for index, spec in enumerate(scenario["machines"]):
        machine = world.new_machine(
            f"m{index}",
            cores=spec["cores"],
            threads_per_core=spec["threads_per_core"],
            smt_efficiency=spec["smt_efficiency"],
            speed=spec["speed"],
        )
        for task_spec in spec["tasks"]:
            place_task(world, machine, task_spec, log)
        monitors.append(CpuMonitor(machine))
        monitors.append(RateMonitor(machine, machine.tasks[0]))
    for when, machine_index, task_index, (kind, value) in scenario["events"]:
        machine = world.machines[machine_index % len(world.machines)]

        def fire(machine=machine, task_index=task_index, kind=kind, value=value):
            task = machine.tasks[task_index % len(machine.tasks)]
            apply(world, machine, task, kind, value, log)

        world.sim.schedule(when, fire)
    return world, monitors, log


def observed(world, monitors, log):
    """Everything a run leaves behind, floats as they are."""
    tasks = [
        (
            task.name,
            task.busy_time,
            task.served_total,
            task.dropped_total,
            task.backlog,
            [job.remaining for job in task._queue[task._head:]],
        )
        for machine in world.machines
        for task in machine.tasks
    ]
    series = [
        monitor.bucket_usage()
        if isinstance(monitor, CpuMonitor)
        else (monitor.series(), monitor.loss_fraction())
        for monitor in monitors
    ]
    return world.sim.now, tasks, series, log


class TestDifferential:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenarios)
    def test_memoised_plan_equals_fresh_allocation_at_every_step(self, scenario):
        world, _monitors, _log = build(CheckedWorld, scenario)
        world.run(until=HORIZON)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenarios)
    def test_run_equals_the_reference_loop_bit_for_bit(self, scenario):
        reference = build(ReferenceWorld, scenario)
        reference[0].run(until=HORIZON)
        actual = build(World, scenario)
        actual[0].run(until=HORIZON)
        assert observed(*actual) == observed(*reference)

    def test_direct_blocked_by_write_is_seen_without_notification(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        blocker = machine.new_task("kfib", Priority.KERNEL)
        load = machine.new_task("softnet", Priority.KERNEL)
        load.set_continuous_demand(0.5)
        blocker.submit(1.0)
        assert machine.plan().rates == {blocker: 0.5, load: 0.5}
        load.blocked_by = blocker
        assert machine.plan().rates == {blocker: 1.0}
        load.blocked_by = None
        assert machine.plan().rates == {blocker: 0.5, load: 0.5}


class TestMemoHygiene:
    def test_size_stays_bounded_under_ever_new_demand(self):
        """Figure 6 style: cross-traffic whose rate never repeats makes
        every step a state the memo has not seen."""
        world = World()
        machine = world.new_machine("m", cores=1)
        irq = machine.new_task("interrupts-xt", Priority.INTERRUPT)
        machine.new_task("xorp_bgp").submit(50.0)
        sizes = []
        changes = 3 * cpu._PLAN_MEMO_MAX

        def retune(index=0):
            irq.set_continuous_demand(0.1 + 0.5 * index / changes)
            sizes.append(len(machine._plans))
            if index + 1 < changes:
                world.sim.schedule(0.01, lambda: retune(index + 1))

        world.sim.schedule(0.0, retune)
        world.run(until=0.01 * changes)
        assert len(sizes) == changes
        assert max(sizes) == cpu._PLAN_MEMO_MAX  # it filled, and no further
        assert 0 < len(machine._plans) <= cpu._PLAN_MEMO_MAX
        assert machine.plan().rates == machine.compute_rates()

    def test_empty_after_add_task(self):
        world = World()
        machine = world.new_machine("m", cores=1)
        first = machine.new_task("first")
        first.submit(1.0)
        assert machine.plan().rates == {first: 1.0}
        assert machine._plans
        second = machine.add_task(Task("second"))
        assert not machine._plans
        second.submit(1.0)
        assert machine.plan().rates == {first: 0.5, second: 0.5}

    def test_plans_are_per_machine(self):
        a, b = Machine("a", speed=1.0), Machine("b", speed=2.0)
        a.new_task("t").submit(1.0)
        b.new_task("t").submit(1.0)
        assert list(a.plan().rates.values()) == [1.0]
        assert list(b.plan().rates.values()) == [2.0]


class TestMachinelessWorld:
    """Every ``repro.topo`` run: events only, nothing to plan."""

    def test_honours_until(self):
        world = World()
        fired = []
        for when in (1.0, 2.0, 7.0):
            world.sim.schedule(when, lambda: fired.append(world.sim.now))
        assert world.run(until=5.0) == 5.0
        assert fired == [1.0, 2.0]
        assert world.run() == 7.0
        assert fired == [1.0, 2.0, 7.0]
        assert world.idle()

    def test_until_with_nothing_queued_moves_the_clock(self):
        world = World()
        assert world.run(until=3.0) == 3.0
        assert world.run() == 3.0

    def test_a_step_is_an_event_instant(self):
        def world_with_events():
            world = World()
            for when in (1.0, 1.0, 1.0, 2.0):
                world.sim.schedule(when, lambda: fired.append(world.sim.now))
            return world

        fired = []
        # Two instants fire in two steps; the step that finds the queue
        # empty is the third.
        with pytest.raises(RuntimeError, match="max_steps"):
            world_with_events().run(max_steps=2)
        assert fired == [1.0, 1.0, 1.0, 2.0]
        fired.clear()
        assert world_with_events().run(max_steps=3) == 2.0
        assert fired == [1.0, 1.0, 1.0, 2.0]

    def test_honours_max_steps(self):
        world = World()

        def tick():
            world.sim.schedule(1.0, tick)

        world.sim.schedule(0.0, tick)
        with pytest.raises(RuntimeError, match="max_steps"):
            world.run(max_steps=50)
        assert world.sim.now == pytest.approx(49.0)
