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
:meth:`Machine.compute_rates` on that state (docs/MODELING.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(slots=True)
class Job:
    """A discrete piece of CPU work: *service* seconds at unit speed."""

    service: float
    callback: Callable[[], None] | None = None
    tag: str = ""
    remaining: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.service < math.inf:
            raise ValueError(f"negative or non-finite service time: {self.service}")
        self.remaining = self.service


class Task:
    """One schedulable entity on a machine."""

    def __init__(
        self,
        name: str,
        priority: Priority = Priority.USER,
        max_backlog: float = 0.05,
    ):
        if not max_backlog >= 0:
            raise ValueError(f"negative or NaN backlog cap: {max_backlog}")
        self.name = name
        self.priority = priority
        self.machine: "Machine | None" = None
        #: Lock coupling: while the blocker has a job in service, this
        #: task cannot run (its continuous demand keeps accruing and
        #: overflows into drops). Models the kernel FIB write lock
        #: stalling the forwarding path during route installation.
        self.blocked_by: "Task | None" = None
        self._queue: list[Job] = []
        self._head = 0
        # Continuous-load state (used when continuous_demand > 0).
        self.continuous_demand = 0.0
        self.backlog = 0.0
        self.max_backlog = max_backlog
        self.served_total = 0.0
        self.dropped_total = 0.0
        self.busy_time = 0.0
        # Background demand: like a continuous load but with no backlog
        # accounting — models housekeeping (xorp_rtrmgr).
        self.background_demand = 0.0

    # -- discrete jobs ---------------------------------------------------

    def enqueue(self, job: Job) -> None:
        self._queue.append(job)

    def submit(self, service: float, callback: Callable[[], None] | None = None, tag: str = "") -> None:
        """Convenience: enqueue a job; zero-cost jobs complete at the next
        advance without consuming CPU."""
        self.enqueue(Job(service, callback, tag))

    @property
    def current_job(self) -> Job | None:
        return self._queue[self._head] if self._head < len(self._queue) else None

    def queue_length(self) -> int:
        return len(self._queue) - self._head

    def _pop_job(self) -> Job:
        job = self._queue[self._head]
        self._head += 1
        # Compact occasionally so memory stays bounded on long runs.
        if self._head > 1024 and self._head * 2 > len(self._queue):
            del self._queue[: self._head]
            self._head = 0
        return job

    # -- continuous load ------------------------------------------------------

    def set_continuous_demand(self, rate: float) -> None:
        """Work now arrives at *rate* cpu-seconds per second."""
        if not 0 <= rate < math.inf:
            raise ValueError(f"negative or non-finite demand: {rate}")
        self.continuous_demand = rate

    def set_background_demand(self, rate: float) -> None:
        if not 0 <= rate < math.inf:
            raise ValueError(f"negative or non-finite demand: {rate}")
        self.background_demand = rate

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
    """A multi-core CPU with SMT and a set of tasks."""

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
        self.monitors: list = []
        self._plans: dict[tuple, RatePlan] = {}

    def add_task(self, task: Task) -> Task:
        if task.machine is not None:
            raise ValueError(f"task {task.name} already placed")
        task.machine = self
        self.tasks.append(task)
        # Keys are positional over ``tasks``: none describes the new list.
        self._plans.clear()
        return task

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

        The key holds, per task and for the machine, exactly what
        :meth:`compute_rates` reads, so a hit returns what a fresh call
        would: there is nothing to invalidate and direct attribute
        writes (``task.blocked_by = ...``) need no notification. Backlog
        enters as a class — zero, at most ``_EPS``, more — which is all
        the allocator and the ``active`` view distinguish.
        """
        key = [
            (
                task._head < len(task._queue),
                blocker is not None and blocker._head < len(blocker._queue),
                (task.backlog > _EPS) + (task.backlog != 0.0),
                task.continuous_demand,
                task.background_demand,
                task.priority,
            )
            for task in self.tasks
            for blocker in (task.blocked_by,)
        ]
        key.append((self.cores, self.threads_per_core, self.smt_efficiency, self.speed))
        key = tuple(key)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= _PLAN_MEMO_MAX:
                self._plans.clear()
            plan = self._plans[key] = self._derive_plan()
        return plan

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
        plans = [machine.plan() for machine in self.machines]

        next_event = sim.peek_time()
        horizon = self._next_completion(plans)
        target = next_event
        if horizon is not None and (target is None or horizon < target):
            target = horizon
        if until is not None and (target is None or until < target):
            target = until

        if target is None:
            return False
        if target > sim.now:
            self._advance(plans, sim.now, target)
            sim.advance_to(target)
        # Nothing ran since the peek, so it still tells whether an event
        # is due; most steps end at a job completion with none.
        fired = sim.fire_due(sim.now) if next_event is not None and next_event <= sim.now else 0
        completed = self._fire_completions()
        if fired == 0 and completed == 0 and target == sim.now and until is not None and sim.now >= until:
            return False
        if fired == 0 and completed == 0 and next_event is None and horizon is None:
            return False
        return True

    def _next_completion(self, plans: list[RatePlan]) -> float | None:
        now = self.sim.now
        soonest: float | None = None
        for _rates, jobs, drains, _active in plans:
            for task, rate in jobs:
                remaining = task._queue[task._head].remaining
                if remaining <= _EPS:
                    return now
                if rate <= _EPS:
                    continue
                when = now + remaining / rate
                if soonest is None or when < soonest:
                    soonest = when
            for task, drain in drains:
                when = now + task.backlog / drain
                if soonest is None or when < soonest:
                    soonest = when
        return soonest

    def _advance(self, plans: list[RatePlan], start: float, end: float) -> None:
        dt = end - start
        if dt <= 0:
            return
        for machine, plan in zip(self.machines, plans):
            monitors = machine.monitors
            for task, rate, has_job in plan.active:
                served = rate * dt
                if has_job:
                    task._queue[task._head].remaining -= served
                else:
                    # Continuous/background load: new demand arrives over
                    # dt; service drains backlog; overflow past the cap
                    # is dropped (packet loss).
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
                    for monitor in monitors:
                        monitor.record(task, start, end, served)

    def _fire_completions(self) -> int:
        completed = 0
        for machine in self.machines:
            for task in machine.tasks:
                # Bound the drain to the jobs present on entry: a
                # completion callback may enqueue further zero-cost jobs
                # on the same task, which must be handled in the *next*
                # step so the run loop's max_steps guard can catch
                # pathological self-respawning work.
                budget = len(task._queue) - task._head
                while budget > 0 and task._head < len(task._queue):
                    job = task._queue[task._head]
                    if job.remaining > _EPS:
                        break
                    task._pop_job()
                    completed += 1
                    budget -= 1
                    if job.callback is not None:
                        job.callback()
        return completed

    # -- convenience -------------------------------------------------------------

    def idle(self) -> bool:
        """True when no events are pending and no task has work."""
        if self.sim.peek_time() is not None:
            return False
        return not any(
            task._head < len(task._queue) or task.backlog > _EPS
            for machine in self.machines
            for task in machine.tasks
        )
