"""Cell-outcome taxonomy for resilient grid runs.

A long benchmark sweep must not lose hours of healthy work to one bad
cell. Instead of letting a worker exception abort ``run_grid``, every
cell ends in one of a closed set of outcomes:

* ``ok`` — the cell produced a result;
* ``cached`` — served from the content-addressed cache, no execution
  at all;
* ``failed`` — the worker raised (:class:`StallError`,
  :class:`SanitizerError`, …) but exited cleanly;
* ``timeout`` — the cell exceeded the per-cell wall-clock budget and
  the supervisor killed the worker;
* ``crashed`` — the worker process died without reporting a result
  (segfault, ``os._exit``, OOM kill).

Each cell runs once. A cell is a pure function of its spec and the
source tree, so running it again would replay the same failure; an
environment fault is finished by running the command again, which
serves every finished cell from the cache. Cells that fail are carried
as structured :class:`CellFailure` records inside the
:class:`~repro.grid.executor.GridReport` failure manifest rather than
as run-aborting exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Failure outcome labels; ``ok`` and ``cached`` cells are counted in
#: the report's results and cache hits.
OUTCOME_FAILED = "failed"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_CRASHED = "crashed"


@dataclass(slots=True)
class CellFailure:
    """A cell the run could not complete, and why."""

    cell_id: str
    outcome: str
    message: str = ""

    def __post_init__(self) -> None:
        if self.outcome not in (OUTCOME_FAILED, OUTCOME_TIMEOUT, OUTCOME_CRASHED):
            raise ValueError(f"not a failure outcome: {self.outcome!r}")

    def describe(self) -> str:
        suffix = f": {self.message}" if self.message else ""
        return f"{self.cell_id}: {self.outcome}{suffix}"

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "cell_id": self.cell_id,
            "outcome": self.outcome,
            "message": self.message,
        }

