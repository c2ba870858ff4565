"""Machines, tasks, and the fluid CPU-sharing model.

A :class:`Machine` has ``cores`` physical cores with ``threads_per_core``
hardware threads; when two threads of one core are busy each runs at
``smt_efficiency`` of the core's speed (the hyper-threading model for
the paper's Xeon). A :class:`Task` is one schedulable entity — an OS
process or a kernel context — in one of three strict priority classes:

* ``INTERRUPT`` — NIC interrupt handling; preempts everything, the
  mechanism behind the cross-traffic degradation of Figure 6(b);
* ``KERNEL`` — softirq forwarding and FIB-installation syscalls
  ("system time" in Figure 6);
* ``USER`` — the XORP processes.

Tasks carry either discrete :class:`Job` queues (serial, FIFO — a
single-threaded process) or a *continuous load*: work arriving at a
constant rate (cpu-seconds per second), the fluid model of per-packet
interrupt processing under cross-traffic. A continuous load served
below its demand accumulates backlog up to a cap, past which the excess
is dropped — that drop is the forwarding packet loss of Figure 6(c).

:class:`World` runs the co-simulation: repeatedly compute each runnable
task's service rate under generalized processor sharing with strict
priorities, advance virtual time to the next job completion or event
timestamp, and fire what is due. Runs are deterministic.

The rate allocation is a pure function of a machine's *scheduling
state* (which tasks hold a job, which are lock-blocked, their demands
and backlog class), and a run revisits a few dozen such states tens of
thousands of times, so :meth:`Machine.plan` memoises
:meth:`Machine.compute_rates` on that state (docs/MODELING.md). The
machine keeps the state current instead of reading it back every step:
a bitmask of the tasks that hold a job, flipped when a queue turns empty
or non-empty; two bits per task for its backlog class, rewritten when a
backlog changes class; and a configuration tuple (demands and
blockers), rebuilt only after :meth:`Task.set_continuous_demand`,
:meth:`Task.set_background_demand` or a ``blocked_by`` write. A
machine's cores, threads, SMT efficiency and speed and a task's
priority are fixed at construction. A step then costs what changed in
it: finished jobs leave their queue at once, and only tasks whose head
job can have finished are visited for completions.
"""

from __future__ import annotations

import math
from collections import deque
from enum import IntEnum
from typing import Callable, NamedTuple

from repro.sim.engine import Simulator

_EPS = 1e-12
#: Scheduling states one machine remembers before starting over. A
#: benchmark cell shows a few dozen; only a sweep of ever-new demand
#: values (cross-traffic ramps) reaches the cap.
_PLAN_MEMO_MAX = 1024


class Priority(IntEnum):
    """Strict priority classes; lower value preempts higher."""

    INTERRUPT = 0
    KERNEL = 1
    USER = 2


class Job:
    """A discrete piece of CPU work: *service* seconds at unit speed,
    *remaining* of it still to serve."""

    __slots__ = ("service", "callback", "tag", "remaining")

    def __init__(
        self, service: float, callback: Callable[[], None] | None = None, tag: str = ""
    ):
        if not 0 <= service < math.inf:
            raise ValueError(f"negative or non-finite service time: {service}")
        self.service = service
        self.callback = callback
        self.tag = tag
        self.remaining = service


class Task:
    """One schedulable entity on a machine. Its priority is fixed at
    construction; its demands are set through
    :meth:`set_continuous_demand` and :meth:`set_background_demand`."""

    def __init__(
        self,
        name: str,
        priority: Priority = Priority.USER,
        max_backlog: float = 0.05,
    ):
        if not max_backlog >= 0:
            raise ValueError(f"negative or NaN backlog cap: {max_backlog}")
        self.name = name
        self.machine: "Machine | None" = None
        #: This task's position in its machine's ``tasks``, and its bit
        #: in the machine's job and due masks.
        self._index = 0
        self._bit = 0
        self.priority = priority
        self._blocked_by: "Task | None" = None
        self._queue: deque[Job] = deque()
        # Continuous-load state (used when continuous_demand > 0).
        self.continuous_demand = 0.0
        self._backlog = 0.0
        self.max_backlog = max_backlog
        self.served_total = 0.0
        self.dropped_total = 0.0
        self.busy_time = 0.0
        # Background demand: like a continuous load but with no backlog
        # accounting — models housekeeping (xorp_rtrmgr).
        self.background_demand = 0.0
        #: The ``record`` methods of the monitors that hear this task.
        self._recorders: tuple = ()

    def _state_changed(self) -> None:
        if self.machine is not None:
            self.machine._state_changed()

    @property
    def backlog(self) -> float:
        """Continuous-load work waiting for the CPU, in cpu-seconds. Its
        class (zero, at most ``_EPS``, more) is scheduling state."""
        return self._backlog

    @backlog.setter
    def backlog(self, value: float) -> None:
        self._backlog = value
        if self.machine is not None:
            self.machine._backlog_moved(self)

    @property
    def blocked_by(self) -> "Task | None":
        """Lock coupling: while the blocker has a job in service, this
        task cannot run (its continuous demand keeps accruing and
        overflows into drops). Models the kernel FIB write lock stalling
        the forwarding path during route installation. Both tasks must
        already sit on the same machine."""
        return self._blocked_by

    @blocked_by.setter
    def blocked_by(self, blocker: "Task | None") -> None:
        if blocker is not None and (self.machine is None or blocker.machine is not self.machine):
            raise ValueError(
                f"task {self.name} can only be blocked by a task on its own machine,"
                f" not by {blocker.name}"
            )
        self._blocked_by = blocker
        self._state_changed()

    # -- discrete jobs ---------------------------------------------------

    def submit(self, service: float, callback: Callable[[], None] | None = None, tag: str = "") -> None:
        """Queue a job of *service* cpu-seconds; *callback* runs when it
        completes. Zero-cost jobs complete at the next advance without
        consuming CPU."""
        job = Job(service, callback, tag)
        queue = self._queue
        machine = self.machine
        if not queue and machine is not None:
            machine._mask |= self._bit
            machine._plan = None
            if job.remaining <= _EPS:
                machine._due |= self._bit
        queue.append(job)

    @property
    def current_job(self) -> Job | None:
        return self._queue[0] if self._queue else None

    def queue_length(self) -> int:
        return len(self._queue)

    def _pop_job(self) -> Job:
        """Remove and return the head job; the queue keeps no reference."""
        queue = self._queue
        job = queue.popleft()
        if not queue and self.machine is not None:
            self.machine._mask &= ~self._bit
            self.machine._plan = None
        return job

    # -- continuous load ------------------------------------------------------

    def set_continuous_demand(self, rate: float) -> None:
        """Work now arrives at *rate* cpu-seconds per second."""
        if not 0 <= rate < math.inf:
            raise ValueError(f"negative or non-finite demand: {rate}")
        self.continuous_demand = rate
        self._state_changed()

    def set_background_demand(self, rate: float) -> None:
        if not 0 <= rate < math.inf:
            raise ValueError(f"negative or non-finite demand: {rate}")
        self.background_demand = rate
        self._state_changed()

    # -- scheduling interface ---------------------------------------------------

    def is_runnable(self) -> bool:
        if self.blocked_by is not None and self.blocked_by.current_job is not None:
            return False
        return (
            self.current_job is not None
            or self.continuous_demand > _EPS
            or self.backlog > _EPS
            or self.background_demand > _EPS
        )

    def desired_rate(self) -> float:
        """How much CPU per second this task can absorb right now."""
        rate = 0.0
        if self.current_job is not None:
            rate = math.inf
        else:
            if self.continuous_demand > _EPS or self.backlog > _EPS:
                # Backlog can be drained as fast as the scheduler allows.
                rate += math.inf if self.backlog > _EPS else self.continuous_demand
            rate += self.background_demand
        return rate


class RatePlan(NamedTuple):
    """One machine's allocation in one scheduling state, and the views
    of it the per-step loops of :class:`World` walk."""

    #: :meth:`Machine.compute_rates` verbatim: runnable task -> rate.
    rates: "dict[Task, float]"
    #: ``(task, rate)`` for every runnable task with a job in service.
    jobs: "tuple[tuple[Task, float], ...]"
    #: ``(task, drain rate)`` for every jobless task working off backlog.
    drains: "tuple[tuple[Task, float], ...]"
    #: ``(task, rate, has job)`` for the tasks the passing of time can
    #: change or a monitor wants to hear of — a rate, a demand or a
    #: backlog — in ``Machine.tasks`` order. For every other task an
    #: advance adds 0.0 to each accumulator and records nothing.
    active: "tuple[tuple[Task, float, bool], ...]"


class Machine:
    """A multi-core CPU with SMT and a set of tasks. Its cores, threads,
    SMT efficiency and speed are fixed at construction."""

    def __init__(
        self,
        name: str,
        cores: int = 1,
        threads_per_core: int = 1,
        smt_efficiency: float = 1.0,
        speed: float = 1.0,
    ):
        if cores < 1 or threads_per_core < 1:
            raise ValueError("cores and threads_per_core must be >= 1")
        if not 0.0 < smt_efficiency <= 1.0:
            raise ValueError("smt_efficiency must be in (0, 1]")
        self.name = name
        self.cores = cores
        self.threads_per_core = threads_per_core
        self.smt_efficiency = smt_efficiency
        self.speed = speed
        self.tasks: list[Task] = []
        #: ``(monitor, task)`` per attached monitor, in attach order:
        #: the monitor hears *task*, or every task when it is None.
        self._monitors: "list[tuple[object, Task | None]]" = []
        # The scheduling state, kept current: one bit per task that
        # holds a job; two bits per task for its backlog class; the
        # plans per configuration tuple (everything else the allocation
        # reads), by (job mask, backlog classes); the configuration's
        # plans and the current plan, None once stale.
        self._mask = 0
        self._backlogs = 0
        self._plans: "dict[tuple, dict[tuple[int, int], RatePlan]]" = {}
        self._plan_count = 0
        self._config: tuple = ()
        self._config_plans: "dict[tuple[int, int], RatePlan] | None" = None
        self._plan: RatePlan | None = None
        #: One bit per task whose head job may have finished: the only
        #: tasks World visits for completions.
        self._due = 0

    def _state_changed(self) -> None:
        self._config_plans = None
        self._plan = None

    def _backlog_moved(self, task: Task) -> None:
        """Re-read *task*'s backlog class into the state."""
        backlog = task._backlog
        shift = 2 * task._index
        backlogs = (self._backlogs & ~(3 << shift)) | (
            ((backlog > _EPS) + (backlog != 0.0)) << shift
        )
        if backlogs != self._backlogs:
            self._backlogs = backlogs
            self._plan = None

    def add_task(self, task: Task) -> Task:
        if task.machine is not None:
            raise ValueError(f"task {task.name} already placed")
        task.machine = self
        task._index = len(self.tasks)
        task._bit = 1 << task._index
        self.tasks.append(task)
        task._recorders = self._recorders_for(task)
        self._backlog_moved(task)
        if task._queue:
            self._mask |= task._bit
            if task._queue[0].remaining <= _EPS:
                self._due |= task._bit
        # Configurations are positional over ``tasks``: none describes
        # the new list.
        self._plans.clear()
        self._plan_count = 0
        self._state_changed()
        return task

    def add_monitor(self, monitor, task: Task | None = None) -> None:
        """Have ``monitor.record(task, start, end, served)`` hear every
        advance in which *task* (every task of this machine, if None)
        served work, held a rate or had continuous demand."""
        self._monitors.append((monitor, task))
        for each in self.tasks:
            each._recorders = self._recorders_for(each)

    def _recorders_for(self, task: Task) -> tuple:
        return tuple(
            monitor.record for monitor, only in self._monitors if only is None or only is task
        )

    @property
    def monitors(self) -> list:
        """Every attached monitor, in attach order."""
        return [monitor for monitor, _task in self._monitors]

    def new_task(self, name: str, priority: Priority = Priority.USER, **kwargs) -> Task:
        return self.add_task(Task(name, priority, **kwargs))

    @property
    def hardware_threads(self) -> int:
        return self.cores * self.threads_per_core

    def capacity(self, runnable: int) -> float:
        """Total service capacity (in core-speed units) with *runnable*
        schedulable entities, under balanced assignment to cores."""
        if runnable <= 0:
            return 0.0
        active_threads = min(runnable, self.hardware_threads)
        full_cores, extra = divmod(active_threads, self.cores)
        # ``extra`` cores run one more thread than the rest.
        total = 0.0
        for core in range(self.cores):
            threads_here = full_cores + (1 if core < extra else 0)
            if threads_here == 0:
                continue
            if threads_here == 1:
                total += 1.0
            else:
                total += threads_here * self.smt_efficiency
        return total * self.speed

    def per_task_cap(self, runnable: int) -> float:
        """The most CPU any single-threaded entity can get."""
        if runnable <= 0:
            return 0.0
        if runnable <= self.cores:
            return self.speed
        # Some core is shared: the slowest entity runs at SMT speed; use
        # the homogeneous approximation capacity/active_threads.
        active = min(runnable, self.hardware_threads)
        return self.capacity(runnable) / active

    def compute_rates(self) -> dict[Task, float]:
        """Allocate CPU to runnable tasks: strict priority between
        classes, progressive-filling (max-min fair) within a class,
        every entity capped at one hardware thread's current speed."""
        runnable = [task for task in self.tasks if task.is_runnable()]
        if not runnable:
            return {}
        total = self.capacity(len(runnable))
        cap = self.per_task_cap(len(runnable))
        rates: dict[Task, float] = {}
        remaining = total
        for priority in sorted({task.priority for task in runnable}):
            group = [task for task in runnable if task.priority == priority]
            group_rates = _max_min_fill(
                [(task, min(task.desired_rate(), cap)) for task in group],
                min(remaining, cap * len(group)),
            )
            for task, rate in group_rates.items():
                rates[task] = rate
                remaining -= rate
            if remaining <= _EPS:
                remaining = 0.0
        return rates

    def plan(self) -> RatePlan:
        """The allocation for the current scheduling state, memoised.

        The state is the key ``(job mask, backlog classes,
        configuration)``: which tasks hold a job; each task's backlog
        class (zero, at most ``_EPS``, more: all the allocator and the
        ``active`` view distinguish); and per task the rest of what
        :meth:`compute_rates` reads and can change — the demands and the
        blocker's position (priorities and the machine's parameters are
        fixed at construction). The machine keeps all three current: a
        queue turning empty or non-empty flips its task's job bit, a
        backlog moving to another class rewrites its two bits, and
        either drops the current plan; a demand setter or a
        ``blocked_by`` write marks the configuration stale. Until then
        this returns the current plan as it is.
        """
        plan = self._plan
        if plan is not None:
            return plan
        if self._config_plans is None:
            self._config = self._read_config()
            self._config_plans = self._plans.setdefault(self._config, {})
        key = (self._mask, self._backlogs)
        plan = self._config_plans.get(key)
        if plan is None:
            if self._plan_count >= _PLAN_MEMO_MAX:
                self._plans.clear()
                self._plan_count = 0
                self._config_plans = self._plans[self._config] = {}
            plan = self._config_plans[key] = self._derive_plan()
            self._plan_count += 1
        self._plan = plan
        return plan

    def _read_config(self) -> tuple:
        """What the allocation reads beyond the job mask and backlog
        classes and can change while the task list stands: each task's
        demands and blocker. The machine's parameters and the tasks'
        priorities are fixed at construction, and ``add_task`` drops
        every plan, so neither is part of the key."""
        return tuple(
            (
                task.continuous_demand,
                task.background_demand,
                None if task._blocked_by is None else task._blocked_by._index,
            )
            for task in self.tasks
        )

    def _derive_plan(self) -> RatePlan:
        rates = self.compute_rates()
        jobs, drains, active = [], [], []
        for task in self.tasks:
            has_job = task.current_job is not None
            rate = rates.get(task)
            if rate is None:
                rate = 0.0
            elif has_job:
                jobs.append((task, rate))
            elif task.backlog > _EPS and rate > task.continuous_demand + task.background_demand + _EPS:
                # Backlog depletion is a rate-change point: re-plan there.
                drains.append((task, rate - task.continuous_demand - task.background_demand))
            if (
                rate != 0.0
                or task.continuous_demand != 0.0
                or task.background_demand != 0.0
                or task.backlog != 0.0
            ):
                active.append((task, rate, has_job))
        return RatePlan(rates, tuple(jobs), tuple(drains), tuple(active))

    def _fire_completions(self) -> int:
        """Pop every finished head job of the due tasks, in ``tasks``
        order, and run its callback; return how many finished."""
        tasks = self.tasks
        completed = 0
        index = 0
        while True:
            # Callbacks may make any task due: a later one is visited in
            # this pass, an earlier one (or this one again) next step.
            rest = self._due >> index
            if not rest:
                return completed
            index += (rest & -rest).bit_length() - 1
            task = tasks[index]
            self._due &= ~task._bit
            queue = task._queue
            # Bound the drain to the jobs present on entry: a completion
            # callback may enqueue further zero-cost jobs on the same
            # task, which must be handled in the *next* step so the run
            # loop's max_steps guard can catch pathological
            # self-respawning work.
            budget = len(queue)
            while budget > 0 and queue[0].remaining <= _EPS:
                job = task._pop_job()
                completed += 1
                budget -= 1
                if job.callback is not None:
                    job.callback()
            if queue and queue[0].remaining <= _EPS:
                self._due |= task._bit
            index += 1


def _max_min_fill(demands: "list[tuple[Task, float]]", budget: float) -> dict[Task, float]:
    """Max-min fair allocation of *budget* across tasks with demand caps."""
    allocation = {task: 0.0 for task, _ in demands}
    pending = [(task, demand) for task, demand in demands if demand > _EPS]
    remaining = budget
    while pending and remaining > _EPS:
        fair = remaining / len(pending)
        satisfied = [(task, demand) for task, demand in pending if demand <= fair + _EPS]
        if satisfied:
            for task, demand in satisfied:
                allocation[task] = demand
                remaining -= demand
            pending = [(task, demand) for task, demand in pending if demand > fair + _EPS]
        else:
            for task, _demand in pending:
                allocation[task] = fair
            remaining = 0.0
            pending = []
    return allocation


class World:
    """Co-simulates the event queue and the fluid CPU state of one or
    more machines."""

    def __init__(self, sim: Simulator | None = None):
        self.sim = sim if sim is not None else Simulator()
        self.machines: list[Machine] = []

    def add_machine(self, machine: Machine) -> Machine:
        self.machines.append(machine)
        return machine

    def new_machine(self, name: str, **kwargs) -> Machine:
        return self.add_machine(Machine(name, **kwargs))

    # -- main loop -----------------------------------------------------------

    def run(self, until: float | None = None, max_steps: int = 50_000_000) -> float:
        """Run until no work remains (or the clock reaches *until*).
        Returns the final virtual time."""
        if until is not None and not math.isfinite(until):
            raise ValueError(f"non-finite run horizon: {until}")
        if not self.machines:
            return self._run_events(until, max_steps)
        for _ in range(max_steps):
            if not self._step(until):
                return self.sim.now
        raise RuntimeError("simulation exceeded max_steps — likely a livelock")

    def _run_events(self, until: float | None, max_steps: int) -> float:
        """:meth:`run` for a world with no machines (every repro.topo
        run): a plain event loop, one event per :meth:`Simulator.fire_due`
        call, nothing to plan, advance or complete. A step is still one
        event instant, as in :meth:`_step`, so *max_steps* means what it
        means there."""
        sim = self.sim
        steps = 0
        instant = None
        while True:
            next_event = sim.peek_time()
            if next_event is None or (until is not None and next_event > until):
                if steps == max_steps:
                    break
                if until is not None and until > sim.now:
                    sim.advance_to(until)
                return sim.now
            if next_event != instant:
                if steps == max_steps:
                    break
                steps += 1
                instant = next_event
                if next_event > sim.now:
                    sim.advance_to(next_event)
            sim.fire_due()
        raise RuntimeError("simulation exceeded max_steps — likely a livelock")

    def _step(self, until: float | None) -> bool:
        sim = self.sim
        now = sim.now
        machines = self.machines
        # The next job completion or backlog depletion. A head job with
        # nothing left is due now; every other candidate is >= now.
        horizon = None
        for machine in machines:
            _rates, jobs, drains, _active = machine.plan()
            for task, rate in jobs:
                remaining = task._queue[0].remaining
                if remaining <= _EPS:
                    when = now
                elif rate <= _EPS:
                    continue
                else:
                    when = now + remaining / rate
                if horizon is None or when < horizon:
                    horizon = when
            for task, drain in drains:
                when = now + task._backlog / drain
                if horizon is None or when < horizon:
                    horizon = when
        next_event = sim.peek_time()
        target = next_event
        if horizon is not None and (target is None or horizon < target):
            target = horizon
        if until is not None and (target is None or until < target):
            target = until

        if target is None:
            return False
        if target > now:
            dt = target - now
            for machine in machines:
                # The plan fetched above: since then only monitors, which
                # change no task, have run.
                _rates, _jobs, _drains, active = machine._plan
                for task, rate, has_job in active:
                    served = rate * dt
                    if has_job:
                        job = task._queue[0]
                        job.remaining -= served
                        if job.remaining <= _EPS:
                            machine._due |= task._bit
                    else:
                        # Continuous/background load: new demand arrives
                        # over dt; service drains backlog; overflow past
                        # the cap is dropped (packet loss).
                        before = task._backlog
                        demand_in = (task.continuous_demand + task.background_demand) * dt
                        backlog = before + demand_in - served
                        if backlog < 0.0:
                            served = before + demand_in
                            backlog = 0.0
                        dropped = 0.0
                        if backlog > task.max_backlog:
                            dropped = backlog - task.max_backlog
                            backlog = task.max_backlog
                        task._backlog = backlog
                        if (backlog > _EPS) != (before > _EPS) or (backlog == 0.0) != (before == 0.0):
                            machine._backlog_moved(task)
                        task.served_total += served
                        task.dropped_total += dropped
                    task.busy_time += served
                    if served > 0 or rate > 0 or task.continuous_demand > 0:
                        for record in task._recorders:
                            record(task, now, target, served)
            sim.advance_to(target)
        # Nothing ran since the peek, so it still tells whether an event
        # is due; most steps end at a job completion with none.
        fired = sim.fire_due(sim.now) if next_event is not None and next_event <= sim.now else 0
        completed = 0
        for machine in machines:
            if machine._due:
                completed += machine._fire_completions()
        if fired == 0 and completed == 0 and target == sim.now and until is not None and sim.now >= until:
            return False
        if fired == 0 and completed == 0 and next_event is None and horizon is None:
            return False
        return True

    # -- convenience -------------------------------------------------------------

    def idle(self) -> bool:
        """True when no events are pending and no task has work."""
        if self.sim.peek_time() is not None:
            return False
        return not any(
            machine._mask or any(task._backlog > _EPS for task in machine.tasks)
            for machine in self.machines
        )
