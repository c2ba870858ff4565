"""Process supervision for grid cells: timeouts, kill-and-replace, retry.

A :class:`Supervisor` keeps up to ``workers`` long-lived worker
processes, each serving one cell attempt at a time over a task pipe and
a result pipe (:func:`_worker_main`). Starting a process costs about as
much as a small cell runs, so a healthy worker is reused for the whole
run; it is replaced only when it can no longer be trusted. The
supervisor watches every in-flight attempt and

* on a result message, records ``ok``;
* on an error message, records ``failed`` (the worker survived to
  report — :class:`StallError`, :class:`SanitizerError`, any other
  exception a cell raises) and keeps the worker;
* on end-of-pipe without a message, records ``crashed`` (the process
  died reporting nothing — segfault, OOM kill) and starts a fresh
  worker for the slot when one is next needed;
* on a blown wall-clock deadline, **kills** the worker (SIGKILL),
  records ``timeout`` and likewise replaces it — so a bad cell takes
  down exactly one attempt and one hung cell can never wedge the run.

Failed attempts re-queue on the deterministic
:meth:`~repro.grid.outcomes.ExecutionPolicy.retry_delay` schedule;
while a retry cools down, other cells keep the worker slots busy. When
the run's failure budget is exhausted, not-yet-launched cells are
``quarantined`` instead of burning time on a run that is already lost.

The supervisor reads the *wall* clock — it polices real processes and
never touches simulation state, so results stay a pure function of the
cell spec. Cell execution itself still happens in
:func:`repro.grid.cells.run_cell`, byte-identical to an in-process run;
a worker that has served other cells before answers exactly as a fresh
one (every cache it keeps is a value-keyed memo, docs/PERF.md).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Callable, Sequence

from repro.grid.cells import Cell, run_cell
from repro.grid.outcomes import (
    OUTCOME_CRASHED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_QUARANTINED,
    OUTCOME_TIMEOUT,
    AttemptRecord,
    CellFailure,
    ExecutionPolicy,
)

#: Grace period for joining a worker told to exit (seconds).
_JOIN_GRACE = 2.0


def _now() -> float:
    """Wall-clock read for supervising real worker processes. This is
    deliberate ambient state: timeouts and retry pacing are operational
    concerns that never feed back into cell results."""
    return time.monotonic()  # repro: noqa[RPR001] — process supervision needs the wall clock


def _worker_main(tasks, results, sanitize: bool, telemetry_dir: "str | None") -> None:
    """Worker entry point — top-level so it pickles under spawn too.

    Serves cells from *tasks* until the ``None`` sentinel, answering
    each with ``("ok", result)`` or ``("error", text)``. It also returns
    when the parent process dies: under fork the worker holds a copy of
    its own task pipe's write end, so the pipe never reads EOF, and
    only the parent's sentinel tells an orphan to exit."""
    from repro.bgp import reset_caches

    reset_caches()  # fork-safety contract: workers begin cold (docs/PERF.md)
    parent = multiprocessing.parent_process().sentinel
    try:
        while parent not in _wait_connections([tasks, parent]):
            cell = tasks.recv()
            if cell is None:
                return
            try:
                reply = ("ok", run_cell(
                    cell, sanitize=sanitize, telemetry_dir=telemetry_dir
                ))
            except BaseException as error:  # noqa: BLE001 — report, never escape
                reply = ("error", f"{type(error).__name__}: {error}")
            results.send(reply)
    except (EOFError, OSError):
        pass  # task pipe closed, or the parent is gone: nothing left to serve


@dataclass(slots=True)
class SupervisorStats:
    """Counters the run publishes into the grid metrics."""

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0


@dataclass(slots=True)
class _Task:
    """One cell waiting to (re)run."""

    cell: Cell
    attempt: int
    ready_at: float
    seq: int
    records: "list[AttemptRecord]" = field(default_factory=list)


@dataclass(slots=True)
class _Worker:
    """One worker process and the attempt it is serving, if any."""

    process: multiprocessing.Process
    tasks: object
    results: object
    task: "_Task | None" = None
    deadline: "float | None" = None


class Supervisor:
    """Drive a set of cells to terminal outcomes under a policy."""

    def __init__(
        self,
        policy: ExecutionPolicy,
        workers: int = 1,
        sanitize: bool = False,
        telemetry_dir: "str | None" = None,
    ):
        self.policy = policy
        self.workers = max(1, workers)
        self.sanitize = sanitize
        self.telemetry_dir = telemetry_dir

    # -- lifecycle of one worker -------------------------------------------

    def _spawn(self) -> _Worker:
        task_recv, task_send = multiprocessing.Pipe(duplex=False)
        result_recv, result_send = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_worker_main,
            args=(task_recv, result_send, self.sanitize, self.telemetry_dir),
            daemon=True,
        )
        process.start()
        task_recv.close()
        result_send.close()  # EOF on result_recv now means worker death
        return _Worker(process, task_send, result_recv)

    def _assign(self, worker: _Worker, task: _Task, now: float) -> None:
        worker.task = task
        worker.deadline = (
            None if self.policy.cell_timeout is None
            else now + self.policy.cell_timeout
        )
        try:
            worker.tasks.send(task.cell)
        except OSError:
            pass  # died while idle: its result pipe reads EOF -> crashed

    @staticmethod
    def _retire(worker: _Worker, kill: bool) -> "int | None":
        """Stop *worker* — at once with *kill*, else by asking — and
        return its exit code."""
        if kill:
            worker.process.kill()
        else:
            try:
                worker.tasks.send(None)
            except OSError:
                pass  # already dead
        worker.tasks.close()
        worker.results.close()
        worker.process.join(_JOIN_GRACE)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(_JOIN_GRACE)
        exitcode = worker.process.exitcode
        worker.process.close()
        return exitcode

    # -- the supervision loop ----------------------------------------------

    def run(
        self,
        cells: Sequence[Cell],
        on_success: "Callable[[Cell, dict, list[AttemptRecord]], None] | None" = None,
        on_failure: "Callable[[Cell, CellFailure], None] | None" = None,
    ) -> "tuple[dict[str, dict], dict[str, CellFailure], SupervisorStats]":
        """Run every cell; return (results, failures, stats).

        *results* holds successful cells only; *failures* the terminal
        :class:`CellFailure` records. The two partitions cover the
        input exactly. Callbacks fire once per cell at its terminal
        outcome, in completion order. No worker process outlives the
        call, however it ends.
        """
        results: dict[str, dict] = {}
        failures: dict[str, CellFailure] = {}
        stats = SupervisorStats()
        queue: list[_Task] = [
            _Task(cell, attempt=0, ready_at=0.0, seq=seq)
            for seq, cell in enumerate(cells)
        ]
        live: list[_Worker] = []
        budget = self.policy.failure_budget

        def fail(task: _Task, outcome: str) -> None:
            failure = CellFailure(task.cell.cell_id, outcome, task.records)
            failures[task.cell.cell_id] = failure
            if on_failure is not None:
                on_failure(task.cell, failure)

        def settle_failure(task: _Task, outcome: str, error: str, now: float) -> None:
            record = AttemptRecord(task.attempt, outcome, error)
            task.records.append(record)
            if task.attempt < self.policy.retries:
                delay = self.policy.retry_delay(task.attempt)
                record.retry_delay = delay
                stats.retries += 1
                queue.append(_Task(
                    task.cell, task.attempt + 1, now + delay, task.seq, task.records
                ))
            else:
                fail(task, outcome)

        try:
            while queue or any(worker.task is not None for worker in live):
                now = _now()

                # Quarantine before launching anything new: once the budget
                # is gone the run is already red, stop burning time on it.
                if budget is not None and len(failures) >= budget and queue:
                    for task in sorted(queue, key=lambda t: t.seq):
                        fail(task, OUTCOME_QUARANTINED)
                    queue = []
                    continue

                due = sorted(
                    (task for task in queue if task.ready_at <= now),
                    key=lambda task: (task.ready_at, task.seq),
                )
                for task in due:
                    worker = next((w for w in live if w.task is None), None)
                    if worker is None:
                        if len(live) >= self.workers:
                            break
                        worker = self._spawn()
                        live.append(worker)
                    queue.remove(task)
                    self._assign(worker, task, now)

                busy = [worker for worker in live if worker.task is not None]
                # Wake for the earliest deadline, and for a cooling retry
                # only when a slot is free to take it: with every slot
                # busy nothing can launch before a result arrives.
                wake = [w.deadline for w in busy if w.deadline is not None]
                if queue and len(busy) < self.workers:
                    wake.append(min(task.ready_at for task in queue))
                timeout = max(min(wake) - now, 0.0) if wake else None
                if not busy:
                    time.sleep(timeout)
                    continue
                ready = _wait_connections([w.results for w in busy], timeout)
                now = _now()

                for worker in busy:
                    task = worker.task
                    if worker.results in ready:
                        try:
                            message = worker.results.recv()
                        except (EOFError, OSError):
                            message = None
                        if message is None:
                            live.remove(worker)
                            exitcode = self._retire(worker, kill=False)
                            stats.worker_crashes += 1
                            settle_failure(
                                task,
                                OUTCOME_CRASHED,
                                f"worker died without reporting (exit code {exitcode})",
                                now,
                            )
                            continue
                        worker.task = worker.deadline = None
                        if message[0] == "ok":
                            task.records.append(AttemptRecord(task.attempt, OUTCOME_OK))
                            results[task.cell.cell_id] = message[1]
                            if on_success is not None:
                                on_success(task.cell, message[1], task.records)
                        else:
                            settle_failure(task, OUTCOME_FAILED, message[1], now)
                    elif worker.deadline is not None and now >= worker.deadline:
                        live.remove(worker)
                        self._retire(worker, kill=True)
                        stats.timeouts += 1
                        settle_failure(
                            task,
                            OUTCOME_TIMEOUT,
                            f"exceeded cell timeout ({self.policy.cell_timeout:g}s "
                            f"wall clock); worker killed",
                            now,
                        )
        finally:
            for worker in live:
                self._retire(worker, kill=worker.task is not None)

        return results, failures, stats
