"""Cell-outcome taxonomy and retry policy for resilient grid runs.

A long benchmark sweep must not lose hours of healthy work to one bad
cell. Instead of letting a worker exception abort ``run_grid``, every
cell attempt ends in one of a closed set of outcomes:

* ``ok`` — the attempt produced a result;
* ``cached`` — served from the content-addressed cache or resumed from
  a checkpoint journal, no execution at all;
* ``failed`` — the worker raised (:class:`StallError`,
  :class:`SanitizerError`, a chaos fault, …) but exited cleanly;
* ``timeout`` — the attempt exceeded the per-cell wall-clock budget and
  the supervisor killed the worker;
* ``crashed`` — the worker process died without reporting a result
  (segfault, ``os._exit``, OOM kill);
* ``quarantined`` — never attempted: the run's failure budget
  (``max_failures``) was already exhausted.

Failed attempts are retried on a **deterministic** schedule: the delay
before attempt *n+1* is ``ExecutionPolicy.backoff.delay(n)``, the same
:class:`~repro.bgp.fsm.ReconnectBackoff` pure function of
``(seed, attempt)`` that :class:`repro.faults.recovery.SessionRecovery`
uses for session re-establishment — so two runs of the same grid retry
at identical offsets and the attempt history is byte-reproducible.

Cells whose every attempt fails are carried as structured
:class:`CellFailure` records inside the :class:`~repro.grid.executor.
GridReport` failure manifest rather than as run-aborting exceptions.
"""

from __future__ import annotations

# repro: boundary — failure records cross the grid process boundary.

from dataclasses import dataclass, field

from repro.bgp.fsm import ReconnectBackoff

#: Terminal and per-attempt outcome labels (the closed taxonomy).
OUTCOME_OK = "ok"
OUTCOME_CACHED = "cached"
OUTCOME_FAILED = "failed"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_CRASHED = "crashed"
OUTCOME_QUARANTINED = "quarantined"

OUTCOMES = (
    OUTCOME_OK,
    OUTCOME_CACHED,
    OUTCOME_FAILED,
    OUTCOME_TIMEOUT,
    OUTCOME_CRASHED,
    OUTCOME_QUARANTINED,
)

#: Outcomes a worker attempt can end in (quarantined cells never run;
#: cached cells never reach a worker).
ATTEMPT_OUTCOMES = (OUTCOME_OK, OUTCOME_FAILED, OUTCOME_TIMEOUT, OUTCOME_CRASHED)


@dataclass(slots=True)
class AttemptRecord:
    """One supervised attempt at one cell."""

    attempt: int
    outcome: str
    error: str = ""
    #: Backoff delay booked before the *next* attempt; ``None`` on the
    #: final (successful or terminal) attempt.
    retry_delay: "float | None" = None

    def __post_init__(self) -> None:
        if self.outcome not in ATTEMPT_OUTCOMES:
            raise ValueError(
                f"unknown attempt outcome {self.outcome!r}; valid: {ATTEMPT_OUTCOMES}"
            )

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "retry_delay": self.retry_delay,
        }


@dataclass(slots=True)
class CellFailure:
    """A cell the run could not complete, with its full attempt history."""

    cell_id: str
    outcome: str
    attempts: "list[AttemptRecord]" = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.outcome not in (
            OUTCOME_FAILED,
            OUTCOME_TIMEOUT,
            OUTCOME_CRASHED,
            OUTCOME_QUARANTINED,
        ):
            raise ValueError(f"not a failure outcome: {self.outcome!r}")

    @property
    def message(self) -> str:
        """The error of the last attempt (empty for quarantined cells)."""
        return self.attempts[-1].error if self.attempts else ""

    def describe(self) -> str:
        tries = len(self.attempts)
        if self.outcome == OUTCOME_QUARANTINED:
            return f"{self.cell_id}: quarantined (failure budget exhausted before launch)"
        suffix = f": {self.message}" if self.message else ""
        return (
            f"{self.cell_id}: {self.outcome} after "
            f"{tries} attempt{'s' if tries != 1 else ''}{suffix}"
        )

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "cell_id": self.cell_id,
            "outcome": self.outcome,
            "message": self.message,
            "attempts": [record.to_jsonable() for record in self.attempts],
        }


def _default_backoff() -> ReconnectBackoff:
    # The SessionRecovery schedule scaled down to grid-retry timescales:
    # 50 ms, ~100 ms, ~200 ms, … capped at 2 s. Deterministic jitter
    # (pure in (seed, attempt)) keeps repeated runs byte-identical.
    return ReconnectBackoff(base=0.05, multiplier=2.0, cap=2.0, jitter=0.1, seed=0)


@dataclass(slots=True)
class ExecutionPolicy:
    """How the supervisor treats a misbehaving cell.

    *cell_timeout* is a wall-clock budget per attempt — exceeded, the
    worker is killed and the attempt records ``timeout``. *retries*
    bounds re-attempts after any non-``ok`` attempt. *max_failures*
    quarantines all not-yet-launched cells once that many cells have
    terminally failed.
    """

    cell_timeout: "float | None" = None
    retries: int = 0
    max_failures: "int | None" = None
    backoff: ReconnectBackoff = field(default_factory=_default_backoff)

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive: {self.cell_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError(f"max_failures must be >= 1: {self.max_failures}")

    @property
    def failure_budget(self) -> "int | None":
        """Terminal failures tolerated before quarantining the rest."""
        return self.max_failures

    def retry_delay(self, attempt: int) -> float:
        """Deterministic backoff before re-running after *attempt*."""
        return self.backoff.delay(attempt)

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "cell_timeout": self.cell_timeout,
            "retries": self.retries,
            "max_failures": self.max_failures,
            "backoff": {
                "base": self.backoff.base,
                "multiplier": self.backoff.multiplier,
                "cap": self.backoff.cap,
                "jitter": self.backoff.jitter,
                "seed": self.backoff.seed,
            },
        }
