"""Checkpoint journal: crash recovery and ``--resume`` for grid runs.

The journal is an append-only JSON-lines file written next to the cell
cache. Every terminal cell outcome appends one self-describing record
(format marker, cell spec, source fingerprint, outcome, and — for
completed cells — the full result) which is flushed to the OS before
the run moves on, so an interrupted run (Ctrl-C, OOM kill, power loss)
leaves a prefix of valid lines plus at most one torn final line.

``bgpbench grid --resume`` replays that prefix: cells whose journal
record matches the current spec *and* source fingerprint are served
from the journal without re-execution (outcome ``cached``), torn or
stale lines are skipped, and everything else runs normally. Because the
fingerprint participates in the match, resuming after a source change
can never serve results from old code — the same staleness guarantee
the content-addressed cache gives.

Unlike the cache, the journal is per-run: starting a fresh (non-resume)
run truncates it. The cache answers "has *any* run computed this cell
under this source tree"; the journal answers "how far did *this* run
get".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.grid.cache import source_fingerprint
from repro.grid.cells import Cell
from repro.grid.outcomes import OUTCOME_CACHED, OUTCOME_OK, OUTCOMES

#: Bumped when the journal record layout changes; old lines are skipped.
JOURNAL_FORMAT = 1

#: Journal file name, inside the cache directory by default.
DEFAULT_JOURNAL_NAME = "journal.jsonl"

#: Outcomes a resume may serve without re-executing the cell.
_RESUMABLE = (OUTCOME_OK, OUTCOME_CACHED)


@dataclass(slots=True)
class JournalRecord:
    """One replayable line of the journal."""

    cell_id: str
    spec: "dict[str, object]"
    outcome: str
    result: "dict[str, object] | None"

    @property
    def resumable(self) -> bool:
        return self.outcome in _RESUMABLE and self.result is not None

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "cell_id": self.cell_id,
            "spec": self.spec,
            "outcome": self.outcome,
            "result": self.result,
        }


class RunJournal:
    """Append/replay interface over one journal file."""

    def __init__(self, path: "Path | str", fingerprint: "str | None" = None):
        self.path = Path(path)
        self.fingerprint = (
            fingerprint if fingerprint is not None else source_fingerprint()
        )

    def reset(self) -> None:
        """Start a fresh run: drop any previous journal."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def record(
        self,
        cell: Cell,
        outcome: str,
        result: "dict[str, object] | None" = None,
        detail: "dict[str, object] | None" = None,
    ) -> None:
        """Append one durable line for *cell*'s terminal outcome."""
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}; valid: {OUTCOMES}")
        entry = {
            "format": JOURNAL_FORMAT,
            "fingerprint": self.fingerprint,
            "cell_id": cell.cell_id,
            "spec": cell.spec(),
            "outcome": outcome,
            "result": result,
        }
        if detail is not None:
            entry["detail"] = detail
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def load(self) -> "dict[str, JournalRecord]":
        """Replay the journal: the last valid record per cell id.

        Lines that are torn (partial final write), not UTF-8, from
        another journal format, or stamped with a different source
        fingerprint are skipped — they can never satisfy a resume.
        """
        records: dict[str, JournalRecord] = {}
        try:
            data = self.path.read_bytes()
        except OSError:
            return records
        for line in data.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except ValueError:
                continue  # torn tail of an interrupted run, or damaged bytes
            if not isinstance(entry, dict):
                continue
            if entry.get("format") != JOURNAL_FORMAT:
                continue
            if entry.get("fingerprint") != self.fingerprint:
                continue
            outcome = entry.get("outcome")
            if outcome not in OUTCOMES:
                continue
            cell_id = entry.get("cell_id")
            spec = entry.get("spec")
            if not isinstance(cell_id, str) or not isinstance(spec, dict):
                continue
            result = entry.get("result")
            records[cell_id] = JournalRecord(
                cell_id=cell_id,
                spec=spec,
                outcome=str(outcome),
                result=result if isinstance(result, dict) else None,
            )
        return records

    def completed(self) -> "dict[str, JournalRecord]":
        """The resumable subset of :meth:`load`, keyed by cell id."""
        return {
            cell_id: record
            for cell_id, record in self.load().items()
            if record.resumable
        }
