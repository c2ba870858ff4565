"""Fault-tolerant grid execution: supervisor semantics and degradation.

The resilience layer's contract has three load-bearing planks: a
fault-free supervised run is byte-identical to the in-process one (so
the golden gate sees no difference); real worker faults degrade to
structured ``CellFailure`` records while every healthy cell completes;
and the retry schedule is a deterministic pure function, so two runs
with the same faults agree byte-for-byte on their attempt histories.

The faults are real: :class:`FaultCell` wraps a grid cell and, inside
the worker, SIGKILLs it, sleeps past the cell timeout, or raises.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.grid.supervisor as supervisor_module
from repro.bgp.fsm import ReconnectBackoff
from repro.grid import (
    CellFailure,
    ExecutionPolicy,
    GridCache,
    GridCell,
    enumerate_grid,
    run_cell,
    run_grid,
)
from repro.grid.outcomes import (
    OUTCOME_CRASHED,
    OUTCOME_FAILED,
    OUTCOME_QUARANTINED,
    OUTCOME_TIMEOUT,
    AttemptRecord,
)
from repro.grid.supervisor import Supervisor
from repro.topo import TopoCell

CELLS = enumerate_grid(
    scenarios=[1], platforms=["cisco", "pentium3", "xeon"], seeds=[7],
    table_sizes=[60],
)
CRASH_CELL, HEALTHY_CELL, FLAKY_CELL = (cell.cell_id for cell in CELLS)

#: Millisecond-scale backoff so retry tests don't wait on real time.
FAST_BACKOFF = ReconnectBackoff(base=0.01, multiplier=2.0, cap=0.05, jitter=0.1, seed=5)


def fast_policy(**overrides) -> ExecutionPolicy:
    overrides.setdefault("backoff", FAST_BACKOFF)
    return ExecutionPolicy(**overrides)


class InjectedFault(RuntimeError):
    """The transient failure a ``flaky`` :class:`FaultCell` raises."""


@dataclass(frozen=True)
class FaultCell:
    """A grid cell that misbehaves in the worker before it runs.

    ``crash`` SIGKILLs the worker; ``hang`` sleeps past any cell
    timeout; ``flaky`` raises on the first *times* attempts (every
    attempt when *times* is None), counting attempts with marker files
    in *markers*. An attempt that gets past the fault returns the
    wrapped cell's own result.
    """

    cell: GridCell
    fault: str
    times: "int | None" = None
    markers: "str | None" = None

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
        elif self.fault == "flaky" and (
            self.times is None or self._attempt() < self.times
        ):
            raise InjectedFault(f"injected failure of {self.cell_id}")
        return self.cell.run(sanitize=sanitize, telemetry_dir=telemetry_dir)

    def _attempt(self) -> int:
        """This attempt's 0-based number; leaves a marker for the next."""
        markers = Path(self.markers)
        markers.mkdir(parents=True, exist_ok=True)
        attempt = len(list(markers.glob(f"{self.cell_id}.*")))
        (markers / f"{self.cell_id}.{attempt}").touch()
        return attempt


def inject(cells, faults, times=None, markers=None):
    """*cells*, with each one named in *faults* (``{cell_id: fault}``)
    wrapped in a :class:`FaultCell`."""
    return [
        FaultCell(cell, faults[cell.cell_id], times, str(markers))
        if cell.cell_id in faults else cell
        for cell in cells
    ]


class TestFaultFreeByteIdentity:
    def test_supervised_run_matches_pool_runner(self):
        plain = run_grid(CELLS, workers=1)
        supervised = run_grid(
            CELLS, workers=2, policy=fast_policy(retries=2, cell_timeout=120.0)
        )
        assert supervised.ok
        assert supervised.to_json() == plain.to_json()
        assert supervised.retries == 0
        assert supervised.timeouts == 0
        assert supervised.worker_crashes == 0
        assert supervised.recovered == {}

    def test_supervised_serial_matches_supervised_pooled(self):
        serial = run_grid(CELLS, workers=1, policy=fast_policy())
        pooled = run_grid(CELLS, workers=3, policy=fast_policy())
        assert serial.to_json() == pooled.to_json()

    def test_results_stay_in_enumeration_order(self):
        report = run_grid(CELLS, workers=3, policy=fast_policy())
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
    """Workers are long-lived: one process per slot serves attempt after
    attempt, and only a hang or a silent death gets one replaced."""

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
        report = run_grid(cells, workers=2, policy=fast_policy())
        assert len(spawned) == 3
        assert set(report.failures) == {self.SIX[0].cell_id}
        assert set(report.results) == {cell.cell_id for cell in self.SIX[1:]}

    def test_hung_worker_is_replaced_once(self, spawned):
        cells = inject(self.SIX, {self.SIX[0].cell_id: "hang"})
        # One slot, so the cells behind the hung one must land on its
        # replacement (a second slot would quietly absorb them all).
        report = run_grid(cells, workers=1, policy=fast_policy(cell_timeout=0.75))
        assert len(spawned) == 2
        assert report.failures[self.SIX[0].cell_id].outcome == OUTCOME_TIMEOUT
        assert set(report.results) == {cell.cell_id for cell in self.SIX[1:]}

    def test_failed_attempt_keeps_its_worker(self, spawned):
        cells = inject(self.SIX, {self.SIX[0].cell_id: "flaky"})
        report = run_grid(cells, workers=2, policy=fast_policy())
        assert report.failures[self.SIX[0].cell_id].outcome == OUTCOME_FAILED
        assert len(spawned) == 2

    def test_warm_worker_answers_as_a_cold_one(self, spawned):
        """Scenario and topology cells mixed: in-process, fanned over
        three workers, and one worker serving all of them agree byte for
        byte."""
        in_process = run_grid(MIXED, workers=1)
        fanned = run_grid(MIXED, workers=3)
        del spawned[:]
        one_worker = run_grid(MIXED, workers=1, policy=fast_policy())
        assert len(spawned) == 1 and one_worker.executed == len(MIXED) >= 2
        assert fanned.to_json() == in_process.to_json() == one_worker.to_json()

    def test_supervision_loop_blocks_instead_of_spinning(self, monkeypatch):
        """The poll timeout used to fold in every *queued* task's
        ``ready_at``, so with more cells than slots it was always 0 and
        the parent busy-polled (10 871 waits for these six cells)."""
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
        run_grid(wounded, workers=3, policy=fast_policy(cell_timeout=0.75))
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
    """``workers=2`` with no policy used to abort on the first raising
    cell; it is supervised now, like every other multi-process run."""
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
    failure = report.failures[FLAKY_CELL]
    assert isinstance(failure, CellFailure) and failure.outcome == OUTCOME_FAILED
    assert "StallError" in failure.message and FLAKY_CELL in failure.message
    assert set(report.results) == {CRASH_CELL, HEALTHY_CELL}


class TestFailureOutcomes:
    def test_crash_degrades_to_structured_failure(self):
        cells = inject(CELLS, {CRASH_CELL: "crash"})
        report = run_grid(cells, workers=2, policy=fast_policy())
        assert not report.ok
        failure = report.failures[CRASH_CELL]
        assert failure.outcome == OUTCOME_CRASHED
        assert f"exit code {-signal.SIGKILL}" in failure.message
        assert report.worker_crashes == 1
        # Every healthy cell still completed.
        assert set(report.results) == {HEALTHY_CELL, FLAKY_CELL}

    def test_flaky_worker_error_is_failed_not_crashed(self):
        cells = inject(CELLS, {FLAKY_CELL: "flaky"})
        report = run_grid(cells, workers=2, policy=fast_policy())
        failure = report.failures[FLAKY_CELL]
        assert failure.outcome == OUTCOME_FAILED
        assert "InjectedFault" in failure.message
        assert report.worker_crashes == 0

    def test_hung_cell_is_killed_at_the_timeout(self):
        cells = inject(CELLS, {HEALTHY_CELL: "hang"})
        report = run_grid(cells, workers=2, policy=fast_policy(cell_timeout=0.75))
        failure = report.failures[HEALTHY_CELL]
        assert failure.outcome == OUTCOME_TIMEOUT
        assert "killed" in failure.message
        assert report.timeouts == 1
        assert set(report.results) == {CRASH_CELL, FLAKY_CELL}

    def test_failure_manifest_is_jsonable_and_sorted(self):
        cells = inject(CELLS, {CRASH_CELL: "crash", FLAKY_CELL: "flaky"})
        report = run_grid(cells, workers=3, policy=fast_policy())
        manifest = report.failure_manifest()
        assert list(manifest) == sorted([CRASH_CELL, FLAKY_CELL])
        entry = manifest[CRASH_CELL]
        assert entry["outcome"] == OUTCOME_CRASHED
        assert entry["attempts"][0]["attempt"] == 0


def fail_twice(markers):
    return inject(CELLS, {FLAKY_CELL: "flaky"}, times=2, markers=markers)


class TestDeterministicRetry:
    def test_fail_twice_then_succeed(self, tmp_path):
        report = run_grid(
            fail_twice(tmp_path), workers=2, policy=fast_policy(retries=3)
        )
        assert report.ok
        assert report.retries == 2
        attempts = report.recovered[FLAKY_CELL]
        assert [record["outcome"] for record in attempts] == ["failed", "failed", "ok"]

    def test_retry_budget_exhaustion_is_terminal(self, tmp_path):
        report = run_grid(
            fail_twice(tmp_path), workers=2, policy=fast_policy(retries=1)
        )
        failure = report.failures[FLAKY_CELL]
        assert failure.outcome == OUTCOME_FAILED
        assert len(failure.attempts) == 2

    def test_retry_schedule_is_reproducible(self, tmp_path):
        def delays(markers):
            report = run_grid(
                fail_twice(markers), workers=2, policy=fast_policy(retries=3)
            )
            return [
                record["retry_delay"] for record in report.recovered[FLAKY_CELL]
            ]

        first, second = delays(tmp_path / "first"), delays(tmp_path / "second")
        assert first == second
        # The schedule is the FSM's ReconnectBackoff, pure in
        # (seed, attempt) — not a measured wall-clock artifact.
        assert first == [FAST_BACKOFF.delay(0), FAST_BACKOFF.delay(1), None]


class TestFailureBudget:
    CRASHING = inject(CELLS, {CRASH_CELL: "crash"})

    def test_max_failures_quarantines_the_rest(self):
        report = run_grid(self.CRASHING, workers=1, policy=fast_policy(max_failures=1))
        assert report.failures[CRASH_CELL].outcome == OUTCOME_CRASHED
        for cell_id in (HEALTHY_CELL, FLAKY_CELL):
            assert report.failures[cell_id].outcome == OUTCOME_QUARANTINED
        assert report.results == {}

    def test_strict_is_first_failure_quarantine(self):
        report = run_grid(self.CRASHING, workers=1, policy=fast_policy(max_failures=1))
        outcomes = {cid: f.outcome for cid, f in report.failures.items()}
        assert outcomes[CRASH_CELL] == OUTCOME_CRASHED
        assert outcomes[HEALTHY_CELL] == OUTCOME_QUARANTINED

    def test_without_budget_healthy_cells_complete(self):
        report = run_grid(self.CRASHING, workers=1, policy=fast_policy())
        assert set(report.results) == {HEALTHY_CELL, FLAKY_CELL}


class TestMetricsPublication:
    def test_counters_published_to_registry(self, tmp_path):
        from repro.telemetry import MetricRegistry

        registry = MetricRegistry()
        cells = inject(CELLS, {FLAKY_CELL: "flaky"}, times=1, markers=tmp_path)
        report = run_grid(
            cells, workers=2, policy=fast_policy(retries=2), registry=registry
        )
        assert report.ok
        assert registry.get("grid_retries").value() == 1
        assert registry.get("grid_timeouts").value() == 0
        assert registry.get("grid_worker_crashes").value() == 0
        assert registry.get("grid_cells").value(outcome="ok") == 3
        assert registry.get("grid_cells").value(outcome="crashed") == 0

    def test_counters_cover_failures(self):
        from repro.telemetry import MetricRegistry

        registry = MetricRegistry()
        cells = inject(CELLS, {CRASH_CELL: "crash"})
        run_grid(cells, workers=2, policy=fast_policy(), registry=registry)
        assert registry.get("grid_worker_crashes").value() == 1
        assert registry.get("grid_cells").value(outcome="crashed") == 1
        assert registry.get("grid_cells").value(outcome="ok") == 2


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
            report = run_grid(CELLS[:1], workers=1, cache=cache, policy=fast_policy())
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
            inject(CELLS, {CRASH_CELL: "crash"}), workers=1, policy=fast_policy(),
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
    def test_attempt_record_rejects_unknown_outcome(self):
        with pytest.raises(ValueError):
            AttemptRecord(0, "mysterious")

    def test_cell_failure_rejects_success_outcome(self):
        with pytest.raises(ValueError):
            CellFailure("c", "ok")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(cell_timeout=0.0)
        with pytest.raises(ValueError):
            ExecutionPolicy(retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_failures=0)

    def test_strict_failure_budget(self):
        assert ExecutionPolicy(max_failures=1).failure_budget == 1
        assert ExecutionPolicy(max_failures=4).failure_budget == 4
        assert ExecutionPolicy().failure_budget is None
