"""Checkpoint journal: durability, staleness, and resume semantics."""

import json

import pytest

from repro.grid import (
    ChaosPlan,
    ExecutionPolicy,
    GridCell,
    RunJournal,
    enumerate_grid,
    run_grid,
)
from repro.grid.journal import JOURNAL_FORMAT

CELLS = enumerate_grid(
    scenarios=[1], platforms=["cisco", "pentium3"], seeds=[7], table_sizes=[60]
)


def journal_at(tmp_path, fingerprint="fp") -> RunJournal:
    return RunJournal(tmp_path / "journal.jsonl", fingerprint=fingerprint)


class TestJournalFile:
    def test_record_and_replay_roundtrip(self, tmp_path):
        journal = journal_at(tmp_path)
        cell = CELLS[0]
        journal.record(cell, "ok", {"transactions": 1})
        records = journal.completed()
        assert records[cell.cell_id].result == {"transactions": 1}
        assert records[cell.cell_id].spec == cell.spec()

    def test_last_record_per_cell_wins(self, tmp_path):
        journal = journal_at(tmp_path)
        cell = CELLS[0]
        journal.record(cell, "ok", {"transactions": 1})
        journal.record(cell, "ok", {"transactions": 2})
        assert journal.completed()[cell.cell_id].result == {"transactions": 2}

    def test_failures_are_journalled_but_not_resumable(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.record(CELLS[0], "crashed", None, detail={"attempts": []})
        assert journal.completed() == {}
        assert journal.load()[CELLS[0].cell_id].outcome == "crashed"

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.record(CELLS[0], "ok", {"transactions": 1})
        with open(journal.path, "a") as handle:
            handle.write('{"format": 1, "cell_id": "s1-pent')  # interrupted write
        assert list(journal.completed()) == [CELLS[0].cell_id]

    def test_undecodable_line_is_skipped_and_neighbours_resume(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.record(CELLS[0], "ok", {"transactions": 1})
        with open(journal.path, "ab") as handle:
            handle.write(b'{"format": 1, "cell_id": "\xff\xfe\x80"}\n')  # disk damage
        journal.record(CELLS[1], "ok", {"transactions": 2})
        assert list(journal.completed()) == [CELLS[0].cell_id, CELLS[1].cell_id]

    def test_fingerprint_mismatch_invalidates_records(self, tmp_path):
        journal_at(tmp_path, "before").record(CELLS[0], "ok", {"transactions": 1})
        assert journal_at(tmp_path, "after").completed() == {}

    def test_unknown_format_is_skipped(self, tmp_path):
        journal = journal_at(tmp_path)
        entry = {
            "format": JOURNAL_FORMAT + 1, "fingerprint": "fp",
            "cell_id": CELLS[0].cell_id, "spec": CELLS[0].spec(),
            "outcome": "ok", "result": {},
        }
        journal.path.write_text(json.dumps(entry) + "\n")
        assert journal.completed() == {}

    def test_unknown_outcome_rejected_at_write(self, tmp_path):
        with pytest.raises(ValueError):
            journal_at(tmp_path).record(CELLS[0], "exploded")

    def test_missing_file_loads_empty(self, tmp_path):
        assert journal_at(tmp_path).load() == {}


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        partial = run_grid(CELLS[:1], workers=1, journal=journal)
        assert partial.executed == 1

        resumed = run_grid(CELLS, workers=1, journal=journal, resume=True)
        assert resumed.resumed == 1
        assert resumed.executed == len(CELLS) - 1
        # Byte-identical to a fresh full run.
        assert resumed.to_json() == run_grid(CELLS, workers=1).to_json()

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        run_grid(CELLS[:1], workers=1, journal=journal)
        run_grid(CELLS[1:], workers=1, journal=journal)  # non-resume: reset
        assert list(journal.completed()) == [CELLS[1].cell_id]

    def test_resume_after_crash_reruns_only_the_failed_cell(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        chaos = ChaosPlan.from_spec({CELLS[0].cell_id: {"kind": "crash"}})
        wounded = run_grid(
            CELLS, workers=1, policy=ExecutionPolicy(), chaos=chaos, journal=journal
        )
        assert not wounded.ok

        # The fault is gone (machine rebooted, bug fixed): --resume
        # re-executes the crashed cell only.
        healed = run_grid(CELLS, workers=1, journal=journal, resume=True)
        assert healed.ok
        assert healed.resumed == len(CELLS) - 1
        assert healed.executed == 1
        assert healed.to_json() == run_grid(CELLS, workers=1).to_json()

    def test_resume_ignores_journal_from_changed_source(self, tmp_path):
        stale = RunJournal(tmp_path / "journal.jsonl", fingerprint="old-tree")
        run_grid(CELLS[:1], workers=1, journal=stale)

        current = RunJournal(tmp_path / "journal.jsonl", fingerprint="new-tree")
        report = run_grid(CELLS[:1], workers=1, journal=current, resume=True)
        assert report.resumed == 0
        assert report.executed == 1

    def test_resumed_cells_count_toward_journal_continuity(self, tmp_path):
        """A resumed run re-records nothing but its journal still covers
        newly executed cells, so a second resume completes instantly."""
        journal = RunJournal(tmp_path / "journal.jsonl")
        run_grid(CELLS[:1], workers=1, journal=journal)
        run_grid(CELLS, workers=1, journal=journal, resume=True)
        third = run_grid(CELLS, workers=1, journal=journal, resume=True)
        assert third.resumed == len(CELLS)
        assert third.executed == 0
