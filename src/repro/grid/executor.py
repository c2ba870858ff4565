"""Shard the experiment grid across worker processes, fault-tolerantly.

``run_grid`` takes a list of cells (:class:`~repro.grid.cells.Cell`),
skips every cell the checkpoint journal (``--resume``) or the cache
already holds, and runs the rest. A cell is executed from its spec
alone — the router is rebuilt and the workload re-seeded inside
:func:`repro.grid.cells.run_cell` — so a run on worker processes is
bit-identical to an in-process one and the merge order is the
enumeration order, never the completion order.

There is one way to run a cell and one choice about where, made from
what ``run_grid`` can observe:

* **in-process** when at most one worker would be used and there is
  nothing to supervise (no :class:`ExecutionPolicy`, no chaos plan):
  the cells run in the calling process, in order, and a raising cell
  propagates to the caller;
* **supervised** otherwise: long-lived worker processes under
  :class:`~repro.grid.supervisor.Supervisor`, with per-cell timeouts,
  deterministic retry, and graceful degradation — the run completes
  every healthy cell and carries the rest as structured
  :class:`CellFailure` records in ``GridReport.failures`` instead of
  aborting.
"""

from __future__ import annotations

# repro: boundary — grid reports cross the grid process boundary.

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.grid.cache import GridCache
from repro.grid.cells import Cell, result_json, run_cell
from repro.grid.chaos import ChaosPlan
from repro.grid.journal import RunJournal
from repro.grid.outcomes import (
    OUTCOME_CACHED,
    OUTCOME_OK,
    OUTCOMES,
    CellFailure,
    ExecutionPolicy,
)
from repro.grid.supervisor import Supervisor


@dataclass(slots=True)
class GridReport:
    """Outcome of one grid run: results in enumeration order, the
    failure manifest, and cache/retry accounting.

    ``workers`` is clamped to the worker count actually used: at most
    one per executed cell, and 0 when every cell was served from the
    journal or the cache.
    """

    workers: int
    results: dict[str, dict] = field(default_factory=dict)
    hits: int = 0
    executed: int = 0
    #: Cells resumed from the checkpoint journal (no execution).
    resumed: int = 0
    #: Terminal failures, keyed by cell id (empty on a healthy run).
    failures: "dict[str, CellFailure]" = field(default_factory=dict)
    #: Attempt histories of cells that needed >= 1 retry to succeed.
    recovered: "dict[str, list[dict]]" = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    #: Cells executed but not cached (cache write failed), cell id ->
    #: error text. Degraded, not fatal: the results are still merged.
    uncached: dict[str, str] = field(default_factory=dict)

    @property
    def cells(self) -> int:
        return len(self.results) + len(self.failures)

    @property
    def ok(self) -> bool:
        """True when every cell reached a result."""
        return not self.failures

    @property
    def hit_rate(self) -> float:
        return self.hits / self.cells if self.cells else 0.0

    def to_json(self) -> str:
        """Canonical JSON of the ``{cell_id: result}`` mapping."""
        return result_json(self.results)

    def failure_manifest(self) -> "dict[str, dict]":
        """JSON-ready ``{cell_id: failure}`` mapping in sorted cell-id
        order (completion order is timing-dependent; the manifest must
        not be)."""
        return {
            cell_id: failure.to_jsonable()
            for cell_id, failure in sorted(self.failures.items())
        }

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "workers": self.workers,
            "hits": self.hits,
            "executed": self.executed,
            "resumed": self.resumed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "results": self.results,
            "failures": self.failure_manifest(),
            "recovered": self.recovered,
            "uncached": self.uncached,
        }


def _safe_progress(
    progress: "Callable[[str, bool], None] | None",
) -> "Callable[[str, bool], None]":
    """Wrap *progress* so a callback exception cannot kill the run."""
    if progress is None:
        return lambda cell_id, cached: None

    def wrapped(cell_id: str, cached: bool) -> None:
        try:
            progress(cell_id, cached)
        except Exception as error:  # degraded: reporting must not abort work
            warnings.warn(
                f"progress callback failed for {cell_id}: "
                f"{type(error).__name__}: {error}",
                RuntimeWarning,
                stacklevel=3,
            )

    return wrapped


def _cache_put(
    cache: "GridCache | None", cell: Cell, result: dict, report: GridReport
) -> None:
    """Store *result*, degrading an unwritable cache to a warning."""
    if cache is None:
        return
    try:
        cache.put(cell, result)
    except OSError as error:
        report.uncached[cell.cell_id] = f"{type(error).__name__}: {error}"
        warnings.warn(
            f"cell {cell.cell_id} executed but not cached ({error})",
            RuntimeWarning,
            stacklevel=4,
        )


def _publish_metrics(registry, report: GridReport) -> None:
    """Publish the run's resilience counters into a
    :class:`repro.telemetry.MetricRegistry` (zero-valued counters are
    published too, so the export shape is run-independent)."""
    if registry is None:
        return
    registry.counter(
        "grid_retries", "cell attempts re-run after a failed attempt"
    ).inc(report.retries)
    registry.counter(
        "grid_timeouts", "cell attempts killed at the per-cell wall-clock timeout"
    ).inc(report.timeouts)
    registry.counter(
        "grid_worker_crashes", "grid workers that died without reporting a result"
    ).inc(report.worker_crashes)
    outcomes = registry.counter(
        "grid_cells", "terminal cell outcomes", labels=("outcome",)
    )
    counts = {outcome: 0 for outcome in OUTCOMES}
    counts[OUTCOME_OK] = report.executed
    counts[OUTCOME_CACHED] = report.hits + report.resumed
    for failure in report.failures.values():
        counts[failure.outcome] += 1
    for outcome in OUTCOMES:
        outcomes.inc(counts[outcome], outcome=outcome)


def run_grid(
    cells: Sequence[Cell],
    workers: int = 1,
    cache: "GridCache | None" = None,
    refresh: bool = False,
    progress: "Callable[[str, bool], None] | None" = None,
    sanitize: bool = False,
    telemetry_dir: "str | None" = None,
    policy: "ExecutionPolicy | None" = None,
    chaos: "ChaosPlan | None" = None,
    journal: "RunJournal | None" = None,
    resume: bool = False,
    registry=None,
    shards: int = 1,
) -> GridReport:
    """Run every cell, through the cache when one is given.

    *refresh* re-executes even cached cells (and overwrites their
    entries). *progress*, if given, is called as ``progress(cell_id,
    from_cache)`` once per cell in completion order; a raising callback
    is degraded to a warning. *sanitize* runs every executed cell in
    checked mode and *telemetry_dir* drops per-cell trace/metrics
    artifacts — both observe-only, results are byte-identical.

    More than one worker, a *policy* or a *chaos* plan means supervised
    execution: worker processes, per-cell timeouts, deterministic
    retry, and structured :class:`CellFailure` records in
    ``report.failures`` instead of run-aborting exceptions (see
    :mod:`repro.grid.supervisor`). *journal* checkpoints every terminal
    outcome; with *resume* the journal is replayed first and completed
    cells are skipped. *registry* publishes the
    ``grid_retries / grid_timeouts / grid_worker_crashes / grid_cells``
    counters of the run. *shards* runs each executed topology cell on
    the conservative parallel engine (byte-identical results; scenario
    cells ignore it).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    progress = _safe_progress(progress)
    report = GridReport(workers=0)
    merged: dict[str, dict] = {}

    completed = {}
    if journal is not None:
        if resume:
            completed = journal.completed()
        else:
            journal.reset()

    pending: list[Cell] = []
    for cell in cells:
        record = completed.get(cell.cell_id)
        if record is not None and record.spec == cell.spec():
            merged[cell.cell_id] = record.result
            report.resumed += 1
            progress(cell.cell_id, True)
            continue
        cached = None if (cache is None or refresh) else cache.get(cell)
        if cached is not None:
            merged[cell.cell_id] = cached
            report.hits += 1
            if journal is not None:
                journal.record(cell, OUTCOME_CACHED, cached)
            progress(cell.cell_id, True)
        else:
            pending.append(cell)

    report.workers = min(workers, len(pending))

    def complete(cell: Cell, result: dict) -> None:
        merged[cell.cell_id] = result
        report.executed += 1
        _cache_put(cache, cell, result, report)
        if journal is not None:
            journal.record(cell, OUTCOME_OK, result)
        progress(cell.cell_id, False)

    if report.workers <= 1 and policy is None and chaos is None:
        for cell in pending:
            complete(cell, run_cell(
                cell, sanitize=sanitize, telemetry_dir=telemetry_dir, shards=shards
            ))
    else:
        def on_success(cell: Cell, result: dict, records) -> None:
            if len(records) > 1:
                report.recovered[cell.cell_id] = [
                    record.to_jsonable() for record in records
                ]
            complete(cell, result)

        def on_failure(cell: Cell, failure: CellFailure) -> None:
            report.failures[cell.cell_id] = failure
            if journal is not None:
                journal.record(
                    cell, failure.outcome, None, detail=failure.to_jsonable()
                )
            progress(cell.cell_id, False)

        supervisor = Supervisor(
            policy or ExecutionPolicy(),
            workers=report.workers,
            sanitize=sanitize,
            telemetry_dir=telemetry_dir,
            chaos=chaos,
            shards=shards,
        )
        _results, _failures, stats = supervisor.run(pending, on_success, on_failure)
        report.retries = stats.retries
        report.timeouts = stats.timeouts
        report.worker_crashes = stats.worker_crashes

    # Enumeration order, not completion order.
    report.results = {
        cell.cell_id: merged[cell.cell_id] for cell in cells if cell.cell_id in merged
    }
    _publish_metrics(registry, report)
    return report
