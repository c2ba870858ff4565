"""Process supervision for grid cells: timeouts and kill-and-replace.

A :class:`Supervisor` keeps up to ``workers`` long-lived worker
processes, each serving one cell at a time over a task pipe and
a result pipe (:func:`_worker_main`). Starting a process costs about as
much as a small cell runs, so a healthy worker is reused for the whole
run; it is replaced only when it can no longer be trusted. The
supervisor watches every in-flight cell and

* on a result message, records ``ok``;
* on an error message, records ``failed`` (the worker survived to
  report — :class:`StallError`, :class:`SanitizerError`, any other
  exception a cell raises) and keeps the worker;
* on end-of-pipe without a message, records ``crashed`` (the process
  died reporting nothing — segfault, OOM kill) and starts a fresh
  worker for the slot when one is next needed;
* on a blown wall-clock deadline, **kills** the worker (SIGKILL),
  records ``timeout`` and likewise replaces it — so a bad cell takes
  down exactly one worker and one hung cell can never wedge the run.

Each cell runs once: a cell is a pure function of its spec, so a second
run would replay the same failure.

The supervisor reads the *wall* clock — it polices real processes and
never touches simulation state, so results stay a pure function of the
cell spec. Cell execution itself still happens in
:func:`repro.grid.cells.run_cell`, byte-identical to an in-process run;
a worker that has served other cells before answers exactly as a fresh
one (every cache it keeps is a value-keyed memo, docs/PERF.md).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Callable, Sequence

from repro.grid.cells import Cell, run_cell
from repro.grid.outcomes import (
    OUTCOME_CRASHED,
    OUTCOME_FAILED,
    OUTCOME_TIMEOUT,
    CellFailure,
)

#: Grace period for joining a worker told to exit (seconds).
_JOIN_GRACE = 2.0


def _now() -> float:
    """Wall-clock read for supervising real worker processes. This is
    deliberate ambient state: timeouts are an operational concern that
    never feeds back into cell results."""
    return time.monotonic()


def check_cell_timeout(cell_timeout: "float | None") -> None:
    """Reject a per-cell wall-clock budget that could never fire (NaN,
    infinite) or would fire at once (zero, negative)."""
    if cell_timeout is not None and not 0 < cell_timeout < math.inf:
        raise ValueError(
            f"cell_timeout must be a positive, finite number of seconds, "
            f"got {cell_timeout!r}"
        )


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

    timeouts: int = 0
    worker_crashes: int = 0


@dataclass(slots=True)
class _Worker:
    """One worker process and the cell it is serving, if any."""

    process: multiprocessing.Process
    tasks: object
    results: object
    cell: "Cell | None" = None
    deadline: "float | None" = None


class Supervisor:
    """Drive a set of cells to terminal outcomes on worker processes.

    *cell_timeout*, if given, is a wall-clock budget per cell: exceeded,
    the worker is killed and the cell records ``timeout``.
    """

    def __init__(
        self,
        workers: int = 1,
        sanitize: bool = False,
        telemetry_dir: "str | None" = None,
        cell_timeout: "float | None" = None,
    ):
        check_cell_timeout(cell_timeout)
        self.cell_timeout = cell_timeout
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

    def _assign(self, worker: _Worker, cell: Cell, now: float) -> None:
        worker.cell = cell
        worker.deadline = (
            None if self.cell_timeout is None else now + self.cell_timeout
        )
        try:
            worker.tasks.send(cell)
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
        on_success: "Callable[[Cell, dict], None] | None" = None,
        on_failure: "Callable[[Cell, CellFailure], None] | None" = None,
    ) -> "tuple[dict[str, dict], dict[str, CellFailure], SupervisorStats]":
        """Run every cell once; return (results, failures, stats).

        *results* holds successful cells only; *failures* the terminal
        :class:`CellFailure` records. The two partitions cover the
        input exactly. Callbacks fire once per cell at its terminal
        outcome, in completion order. No worker process outlives the
        call, however it ends.
        """
        results: dict[str, dict] = {}
        failures: dict[str, CellFailure] = {}
        stats = SupervisorStats()
        queue = list(reversed(cells))  # pop() takes them in order
        live: list[_Worker] = []

        def fail(cell: Cell, outcome: str, message: str) -> None:
            failure = CellFailure(cell.cell_id, outcome, message)
            failures[cell.cell_id] = failure
            if on_failure is not None:
                on_failure(cell, failure)

        try:
            while queue or any(worker.cell is not None for worker in live):
                now = _now()
                while queue:
                    worker = next((w for w in live if w.cell is None), None)
                    if worker is None:
                        if len(live) >= self.workers:
                            break
                        worker = self._spawn()
                        live.append(worker)
                    self._assign(worker, queue.pop(), now)

                busy = [worker for worker in live if worker.cell is not None]
                deadlines = [w.deadline for w in busy if w.deadline is not None]
                timeout = max(min(deadlines) - now, 0.0) if deadlines else None
                ready = _wait_connections([w.results for w in busy], timeout)
                now = _now()

                for worker in busy:
                    cell = worker.cell
                    if worker.results in ready:
                        try:
                            message = worker.results.recv()
                        except (EOFError, OSError):
                            message = None
                        if message is None:
                            live.remove(worker)
                            exitcode = self._retire(worker, kill=False)
                            stats.worker_crashes += 1
                            fail(
                                cell,
                                OUTCOME_CRASHED,
                                f"worker died without reporting (exit code {exitcode})",
                            )
                            continue
                        worker.cell = worker.deadline = None
                        if message[0] == "ok":
                            results[cell.cell_id] = message[1]
                            if on_success is not None:
                                on_success(cell, message[1])
                        else:
                            fail(cell, OUTCOME_FAILED, message[1])
                    elif worker.deadline is not None and now >= worker.deadline:
                        live.remove(worker)
                        self._retire(worker, kill=True)
                        stats.timeouts += 1
                        fail(
                            cell,
                            OUTCOME_TIMEOUT,
                            f"exceeded cell timeout ({self.cell_timeout:g}s "
                            f"wall clock); worker killed",
                        )
        finally:
            for worker in live:
                self._retire(worker, kill=worker.cell is not None)

        return results, failures, stats
