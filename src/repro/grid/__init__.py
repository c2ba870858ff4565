"""Parallel sharded experiment grid with a golden-baseline gate.

The grid runner decomposes the paper's experiment space into
self-describing cells (:class:`~repro.grid.cells.Cell`) — a
:class:`~repro.grid.cells.GridCell` per (scenario × platform × seed ×
table-size) point — executes them across supervised worker processes
with results bit-identical to an in-process run, caches
them content-addressed on disk, and diffs them against committed golden
baselines so reproduced paper numbers cannot drift silently.

See ``docs/GRID.md`` for the cell-hashing scheme, the cache layout, and
how to re-bless baselines after an intentional change.
"""

from repro.grid.baseline import (
    DEFAULT_TOLERANCE,
    MetricDrift,
    RegressionReport,
    bless,
    compare,
    load_golden,
)
from repro.grid.cache import DEFAULT_CACHE_DIR, GridCache, source_fingerprint
from repro.grid.cells import GridCell, enumerate_grid, result_json, run_cell
from repro.grid.chaos import ChaosError, ChaosFault, ChaosPlan, ChaosPlanError
from repro.grid.executor import GridReport, run_grid
from repro.grid.journal import DEFAULT_JOURNAL_NAME, RunJournal
from repro.grid.outcomes import (
    OUTCOME_CACHED,
    OUTCOME_CRASHED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_QUARANTINED,
    OUTCOME_TIMEOUT,
    OUTCOMES,
    AttemptRecord,
    CellFailure,
    ExecutionPolicy,
)
from repro.grid.supervisor import Supervisor

__all__ = [
    "AttemptRecord",
    "CellFailure",
    "ChaosError",
    "ChaosFault",
    "ChaosPlan",
    "ChaosPlanError",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_JOURNAL_NAME",
    "DEFAULT_TOLERANCE",
    "ExecutionPolicy",
    "GridCache",
    "GridCell",
    "GridReport",
    "MetricDrift",
    "OUTCOMES",
    "OUTCOME_CACHED",
    "OUTCOME_CRASHED",
    "OUTCOME_FAILED",
    "OUTCOME_OK",
    "OUTCOME_QUARANTINED",
    "OUTCOME_TIMEOUT",
    "RegressionReport",
    "RunJournal",
    "Supervisor",
    "bless",
    "compare",
    "enumerate_grid",
    "load_golden",
    "result_json",
    "run_cell",
    "run_grid",
    "source_fingerprint",
]
