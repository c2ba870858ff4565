"""Shard the experiment grid across worker processes, fault-tolerantly.

``run_grid`` takes a list of cells (:class:`~repro.grid.cells.Cell`),
skips every cell the cache already holds, and runs the rest. Each
executed cell is cached the moment it finishes, so running an
interrupted command again executes only the cells it did not finish.
A cell is executed from its spec alone — the router is rebuilt and the
workload re-seeded inside :func:`repro.grid.cells.run_cell` — so a run
on worker processes is bit-identical to an in-process one and the merge
order is the enumeration order, never the completion order.

There is one way to run a cell and one choice about where, made from
what ``run_grid`` can observe:

* **in-process** when at most one worker would be used and there is
  nothing to supervise (no ``cell_timeout``): the cells run in the
  calling process, in order, and a raising cell propagates to the
  caller;
* **supervised** otherwise: long-lived worker processes under
  :class:`~repro.grid.supervisor.Supervisor`, with per-cell timeouts
  and graceful degradation — each cell runs once, the run completes
  every healthy cell and carries the rest as structured
  :class:`CellFailure` records in ``GridReport.failures`` instead of
  aborting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.grid.cache import GridCache
from repro.grid.cells import Cell, result_json, run_cell
from repro.grid.outcomes import CellFailure
from repro.grid.supervisor import Supervisor, check_cell_timeout


@dataclass(slots=True)
class GridReport:
    """Outcome of one grid run: results in enumeration order, the
    failure manifest, and cache and worker accounting.

    ``workers`` is clamped to the worker count actually used: at most
    one per executed cell, and 0 when every cell was served from the
    cache.
    """

    workers: int
    results: dict[str, dict] = field(default_factory=dict)
    hits: int = 0
    executed: int = 0
    #: Terminal failures, keyed by cell id (empty on a healthy run).
    failures: "dict[str, CellFailure]" = field(default_factory=dict)
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
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "results": self.results,
            "failures": self.failure_manifest(),
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


def run_grid(
    cells: Sequence[Cell],
    workers: int = 1,
    cache: "GridCache | None" = None,
    refresh: bool = False,
    progress: "Callable[[str, bool], None] | None" = None,
    sanitize: bool = False,
    telemetry_dir: "str | None" = None,
    cell_timeout: "float | None" = None,
) -> GridReport:
    """Run every cell, through the cache when one is given.

    *refresh* re-executes even cached cells (and overwrites their
    entries). *progress*, if given, is called as ``progress(cell_id,
    from_cache)`` once per cell in completion order; a raising callback
    is degraded to a warning. *sanitize* runs every executed cell in
    checked mode and *telemetry_dir* receives each executed scenario
    cell's ``<cell_id>.trace.json`` — both observe-only, results are
    byte-identical.

    More than one worker or a *cell_timeout* (wall-clock seconds per
    cell) means supervised execution: worker processes, each cell run
    once, and structured :class:`CellFailure` records in
    ``report.failures`` instead of run-aborting exceptions (see
    :mod:`repro.grid.supervisor`).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    check_cell_timeout(cell_timeout)
    progress = _safe_progress(progress)
    report = GridReport(workers=0)
    merged: dict[str, dict] = {}

    pending: list[Cell] = []
    for cell in cells:
        cached = None if (cache is None or refresh) else cache.get(cell)
        if cached is not None:
            merged[cell.cell_id] = cached
            report.hits += 1
            progress(cell.cell_id, True)
        else:
            pending.append(cell)

    report.workers = min(workers, len(pending))

    def complete(cell: Cell, result: dict) -> None:
        merged[cell.cell_id] = result
        report.executed += 1
        _cache_put(cache, cell, result, report)
        progress(cell.cell_id, False)

    if report.workers <= 1 and cell_timeout is None:
        for cell in pending:
            complete(
                cell, run_cell(cell, sanitize=sanitize, telemetry_dir=telemetry_dir)
            )
    else:
        def on_failure(cell: Cell, failure: CellFailure) -> None:
            report.failures[cell.cell_id] = failure
            progress(cell.cell_id, False)

        supervisor = Supervisor(
            workers=report.workers,
            sanitize=sanitize,
            telemetry_dir=telemetry_dir,
            cell_timeout=cell_timeout,
        )
        _results, _failures, stats = supervisor.run(pending, complete, on_failure)
        report.timeouts = stats.timeouts
        report.worker_crashes = stats.worker_crashes

    # Enumeration order, not completion order.
    report.results = {
        cell.cell_id: merged[cell.cell_id] for cell in cells if cell.cell_id in merged
    }
    return report
