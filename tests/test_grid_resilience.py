"""Fault-tolerant grid execution: supervisor semantics and degradation.

The resilience layer's contract has two load-bearing planks: a
fault-free supervised run is byte-identical to the in-process one (so
the golden gate sees no difference); and real worker faults degrade to
structured ``CellFailure`` records while every healthy cell completes.
Each cell runs once.

The faults are real: :class:`FaultCell` wraps a grid cell and, inside
the worker, SIGKILLs it, sleeps past the cell timeout, or raises.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import pytest

import repro.grid.supervisor as supervisor_module
from repro.grid import (
    CellFailure,
    GridCache,
    GridCell,
    enumerate_grid,
    run_cell,
    run_grid,
)
from repro.grid.outcomes import OUTCOME_CRASHED, OUTCOME_FAILED, OUTCOME_TIMEOUT
from repro.grid.supervisor import Supervisor
from repro.topo import TopoCell

CELLS = enumerate_grid(
    scenarios=[1], platforms=["cisco", "pentium3", "xeon"], seeds=[7],
    table_sizes=[60],
)
CRASH_CELL, HEALTHY_CELL, FAILING_CELL = (cell.cell_id for cell in CELLS)

#: A per-cell budget no healthy test cell comes near: it only makes a
#: one-worker run supervised.
SUPERVISED = 120.0


class InjectedFault(RuntimeError):
    """The failure a ``raise`` :class:`FaultCell` raises."""


@dataclass(frozen=True)
class FaultCell:
    """A grid cell that misbehaves in the worker before it runs.

    ``crash`` SIGKILLs the worker; ``hang`` sleeps past any cell
    timeout; ``raise`` raises :class:`InjectedFault`.
    """

    cell: GridCell
    fault: str

    @property
    def cell_id(self) -> str:
        return self.cell.cell_id

    def spec(self):
        return self.cell.spec()

    def to_jsonable(self):
        return self.cell.to_jsonable()

    @classmethod
    def from_spec(cls, spec):
        return GridCell.from_spec(spec)

    def run(self, sanitize=False, telemetry_dir=None):
        if self.fault == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.fault == "hang":
            time.sleep(60)
        elif self.fault == "raise":
            raise InjectedFault(f"injected failure of {self.cell_id}")
        return self.cell.run(sanitize=sanitize, telemetry_dir=telemetry_dir)


def inject(cells, faults):
    """*cells*, with each one named in *faults* (``{cell_id: fault}``)
    wrapped in a :class:`FaultCell`."""
    return [
        FaultCell(cell, faults[cell.cell_id]) if cell.cell_id in faults else cell
        for cell in cells
    ]


class TestFaultFreeByteIdentity:
    def test_supervised_run_matches_pool_runner(self):
        plain = run_grid(CELLS, workers=1)
        supervised = run_grid(CELLS, workers=2, cell_timeout=SUPERVISED)
        assert supervised.ok
        assert supervised.to_json() == plain.to_json()
        assert supervised.timeouts == 0
        assert supervised.worker_crashes == 0

    def test_supervised_serial_matches_supervised_pooled(self):
        serial = run_grid(CELLS, workers=1, cell_timeout=SUPERVISED)
        pooled = run_grid(CELLS, workers=3, cell_timeout=SUPERVISED)
        assert serial.to_json() == pooled.to_json()

    def test_results_stay_in_enumeration_order(self):
        report = run_grid(CELLS, workers=3, cell_timeout=SUPERVISED)
        assert list(report.results) == [cell.cell_id for cell in CELLS]


MIXED = CELLS + [
    TopoCell(family="convergence", tier1=2, tier2=4, stubs=10),
    TopoCell(family="withdraw", tier1=2, tier2=4, stubs=10),
]


@pytest.fixture
def spawned(monkeypatch):
    """Every worker the supervisor starts during the test, in order."""
    started = []
    spawn = Supervisor._spawn

    def counting(self):
        worker = spawn(self)
        started.append(worker)
        return worker

    monkeypatch.setattr(Supervisor, "_spawn", counting)
    return started


class TestWorkerReuse:
    """Workers are long-lived: one process per slot serves cell after
    cell, and only a hang or a silent death gets one replaced."""

    SIX = enumerate_grid(
        scenarios=[1, 2], platforms=["cisco", "pentium3", "xeon"], seeds=[7],
        table_sizes=[60],
    )

    def test_healthy_run_starts_one_process_per_slot(self, spawned):
        report = run_grid(self.SIX, workers=2)
        assert report.ok and report.executed == 6
        assert len(spawned) == 2

    def test_crashed_worker_is_replaced_once(self, spawned):
        cells = inject(self.SIX, {self.SIX[0].cell_id: "crash"})
        # One slot, so the cells behind the crashed one must land on its
        # replacement: with two, the survivor could drain the queue before
        # the crash is read, and no replacement would start.
        report = run_grid(cells, workers=1, cell_timeout=SUPERVISED)
        assert len(spawned) == 2
        assert set(report.failures) == {self.SIX[0].cell_id}
        assert report.failures[self.SIX[0].cell_id].outcome == OUTCOME_CRASHED
        assert set(report.results) == {cell.cell_id for cell in self.SIX[1:]}

    def test_hung_worker_is_replaced_once(self, spawned):
        cells = inject(self.SIX, {self.SIX[0].cell_id: "hang"})
        # One slot, so the cells behind the hung one must land on its
        # replacement (a second slot would quietly absorb them all).
        report = run_grid(cells, workers=1, cell_timeout=0.75)
        assert len(spawned) == 2
        assert report.failures[self.SIX[0].cell_id].outcome == OUTCOME_TIMEOUT
        assert set(report.results) == {cell.cell_id for cell in self.SIX[1:]}

    def test_failed_attempt_keeps_its_worker(self, spawned):
        cells = inject(self.SIX, {self.SIX[0].cell_id: "raise"})
        report = run_grid(cells, workers=2, cell_timeout=SUPERVISED)
        assert report.failures[self.SIX[0].cell_id].outcome == OUTCOME_FAILED
        assert len(spawned) == 2

    def test_warm_worker_answers_as_a_cold_one(self, spawned):
        """Scenario and topology cells mixed: in-process, fanned over
        three workers, and one worker serving all of them agree byte for
        byte."""
        in_process = run_grid(MIXED, workers=1)
        fanned = run_grid(MIXED, workers=3)
        del spawned[:]
        one_worker = run_grid(MIXED, workers=1, cell_timeout=SUPERVISED)
        assert len(spawned) == 1 and one_worker.executed == len(MIXED) >= 2
        assert fanned.to_json() == in_process.to_json() == one_worker.to_json()

    def test_supervision_loop_blocks_instead_of_spinning(self, monkeypatch):
        """The parent sleeps in the wait until a result or a deadline is
        due: a poll timeout of 0 with more cells than slots once made it
        busy-poll (10 871 waits for these six cells)."""
        waits = []
        wait = supervisor_module._wait_connections

        def counting(connections, timeout=None):
            waits.append((len(connections), timeout))
            return wait(connections, timeout)

        monkeypatch.setattr(supervisor_module, "_wait_connections", counting)
        report = run_grid(self.SIX, workers=2)
        assert report.ok
        assert len(waits) <= 3 * len(self.SIX)
        assert [w for w in waits if w == (2, 0.0)] == []


class TestNoWorkerOutlivesTheRun:
    def test_after_a_healthy_and_a_wounded_run(self):
        wounded = inject(CELLS, {CRASH_CELL: "crash", HEALTHY_CELL: "hang"})
        run_grid(CELLS, workers=3)
        run_grid(wounded, workers=3, cell_timeout=0.75)
        assert multiprocessing.active_children() == []

    def test_when_the_cache_write_raises(self, tmp_path):
        class Broken(GridCache):
            def put(self, cell, result):
                raise RuntimeError("cache backend bug")

        with pytest.raises(RuntimeError, match="cache backend bug"):
            run_grid(CELLS, workers=2, cache=Broken(tmp_path / "c", fingerprint="fp"))
        assert multiprocessing.active_children() == []

    def test_when_progress_raises_keyboard_interrupt(self):
        def interrupt(cell_id, cached):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_grid(CELLS, workers=2, progress=interrupt)
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the monkeypatched run_scenario reaches workers by fork",
)
def test_multi_worker_run_degrades_a_raising_cell_without_a_policy(monkeypatch):
    """``workers=2`` with no cell timeout used to abort on the first
    raising cell; it is supervised now, like every other multi-process
    run."""
    from repro.benchmark.harness import StallError
    from repro.grid import cells as cells_module

    class _Diagnostics:
        def describe(self):
            return "no forward progress"

    run_scenario = cells_module.run_scenario

    def stall_on_xeon(router, scenario, **kwargs):
        if router.spec.name == "xeon":
            raise StallError(_Diagnostics())
        return run_scenario(router, scenario, **kwargs)

    monkeypatch.setattr(cells_module, "run_scenario", stall_on_xeon)
    report = run_grid(CELLS, workers=2)
    failure = report.failures[FAILING_CELL]
    assert isinstance(failure, CellFailure) and failure.outcome == OUTCOME_FAILED
    assert "StallError" in failure.message and FAILING_CELL in failure.message
    assert set(report.results) == {CRASH_CELL, HEALTHY_CELL}


class TestFailureOutcomes:
    def test_crash_degrades_to_structured_failure(self):
        cells = inject(CELLS, {CRASH_CELL: "crash"})
        report = run_grid(cells, workers=2, cell_timeout=SUPERVISED)
        assert not report.ok
        failure = report.failures[CRASH_CELL]
        assert failure.outcome == OUTCOME_CRASHED
        assert f"exit code {-signal.SIGKILL}" in failure.message
        assert report.worker_crashes == 1
        # Every healthy cell still completed.
        assert set(report.results) == {HEALTHY_CELL, FAILING_CELL}

    def test_flaky_worker_error_is_failed_not_crashed(self):
        # The cell raises in a worker that lives on to report it.
        cells = inject(CELLS, {FAILING_CELL: "raise"})
        report = run_grid(cells, workers=2, cell_timeout=SUPERVISED)
        failure = report.failures[FAILING_CELL]
        assert failure.outcome == OUTCOME_FAILED
        assert "InjectedFault" in failure.message
        assert report.worker_crashes == 0

    def test_hung_cell_is_killed_at_the_timeout(self):
        cells = inject(CELLS, {HEALTHY_CELL: "hang"})
        report = run_grid(cells, workers=2, cell_timeout=0.75)
        failure = report.failures[HEALTHY_CELL]
        assert failure.outcome == OUTCOME_TIMEOUT
        assert "killed" in failure.message
        assert report.timeouts == 1
        assert set(report.results) == {CRASH_CELL, FAILING_CELL}

    def test_failure_manifest_is_jsonable_and_sorted(self):
        cells = inject(CELLS, {CRASH_CELL: "crash", FAILING_CELL: "raise"})
        report = run_grid(cells, workers=3, cell_timeout=SUPERVISED)
        manifest = report.failure_manifest()
        assert list(manifest) == sorted([CRASH_CELL, FAILING_CELL])
        entry = manifest[CRASH_CELL]
        assert entry == {
            "cell_id": CRASH_CELL,
            "outcome": OUTCOME_CRASHED,
            "message": f"worker died without reporting (exit code {-signal.SIGKILL})",
        }
        assert "InjectedFault" in manifest[FAILING_CELL]["message"]

    def test_one_worker_run_completes_the_healthy_cells(self):
        report = run_grid(
            inject(CELLS, {CRASH_CELL: "crash"}), workers=1, cell_timeout=SUPERVISED
        )
        assert report.failures[CRASH_CELL].outcome == OUTCOME_CRASHED
        assert set(report.results) == {HEALTHY_CELL, FAILING_CELL}


class _UnwritableCache(GridCache):
    def put(self, cell, result):
        raise OSError(28, "No space left on device")


class TestGracefulDegradation:
    def test_cache_put_failure_degrades_to_warning(self, tmp_path):
        cache = _UnwritableCache(tmp_path / "cache", fingerprint="fp")
        with pytest.warns(RuntimeWarning, match="executed but not cached"):
            report = run_grid(CELLS[:1], workers=1, cache=cache)
        assert report.ok
        assert list(report.results) == [CELLS[0].cell_id]
        assert CELLS[0].cell_id in report.uncached

    def test_cache_put_failure_degrades_on_supervised_path(self, tmp_path):
        cache = _UnwritableCache(tmp_path / "cache", fingerprint="fp")
        with pytest.warns(RuntimeWarning, match="executed but not cached"):
            report = run_grid(CELLS[:1], workers=1, cache=cache, cell_timeout=SUPERVISED)
        assert report.ok and CELLS[0].cell_id in report.uncached

    def test_raising_progress_callback_cannot_kill_the_run(self):
        def bad_progress(cell_id, cached):
            raise RuntimeError("progress handler bug")

        with pytest.warns(RuntimeWarning, match="progress callback failed"):
            report = run_grid(CELLS[:2], workers=1, progress=bad_progress)
        assert report.ok
        assert len(report.results) == 2

    def test_well_behaved_progress_sees_every_terminal_outcome(self):
        seen = []
        report = run_grid(
            inject(CELLS, {CRASH_CELL: "crash"}), workers=1, cell_timeout=SUPERVISED,
            progress=lambda cell_id, cached: seen.append(cell_id),
        )
        assert not report.ok
        assert sorted(seen) == sorted(cell.cell_id for cell in CELLS)


class TestWorkerAccounting:
    def test_workers_clamped_to_pending_cells(self):
        report = run_grid(CELLS[:2], workers=8)
        assert report.workers == 2

    def test_workers_zero_when_everything_cached(self, tmp_path):
        cache = GridCache(tmp_path / "cache", fingerprint="fp")
        run_grid(CELLS[:1], workers=4, cache=cache)
        warm = run_grid(CELLS[:1], workers=4, cache=cache)
        assert warm.hits == 1
        assert warm.workers == 0


class TestCellDiagnostics:
    def test_stall_error_carries_cell_id(self, monkeypatch):
        from repro.benchmark.harness import StallError

        class _Diagnostics:
            def describe(self):
                return "no forward progress"

        def stall(*args, **kwargs):
            raise StallError(_Diagnostics())

        monkeypatch.setattr("repro.grid.cells.run_scenario", stall)
        cell = GridCell(1, "pentium3", 7, 60)
        with pytest.raises(StallError) as info:
            run_cell(cell)
        assert info.value.cell_id == cell.cell_id
        assert cell.cell_id in str(info.value)

    def test_sanitizer_error_carries_cell_id(self, monkeypatch):
        from repro.analysis.sanitizer import SanitizerError

        def violate(*args, **kwargs):
            raise SanitizerError("clock", "time ran backwards", 1.0, [])

        monkeypatch.setattr("repro.grid.cells.run_scenario", violate)
        cell = GridCell(1, "cisco", 7, 60)
        with pytest.raises(SanitizerError) as info:
            run_cell(cell)
        assert info.value.cell_id == cell.cell_id


class TestOutcomeRecords:
    def test_cell_failure_rejects_success_outcome(self):
        with pytest.raises(ValueError):
            CellFailure("c", "ok")

    def test_policy_validation(self):
        # A NaN deadline never fires (now >= nan is always false), so the
        # hung cell it should stop would wedge the run; an infinite one
        # is no budget, and zero or less kills every cell at once.
        for bad in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            for start in (
                lambda: run_grid(CELLS[:1], cell_timeout=bad),
                lambda: Supervisor(cell_timeout=bad),
            ):
                with pytest.raises(ValueError, match=repr(bad)):
                    start()
        assert multiprocessing.active_children() == []
