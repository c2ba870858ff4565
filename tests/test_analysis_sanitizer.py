"""The simulation sanitizer: checked mode holds on clean runs, every
invariant trips on a seeded violation, and checking never changes the
result (observe-only contract)."""

import json

import pytest

from repro.analysis import Sanitizer, SanitizerError
from repro.benchmark import run_scenario
from repro.grid.cells import GridCell, run_cell
from repro.sim.engine import Simulator, _ScheduledEvent
from repro.systems import build_system


def _noop() -> None:
    pass


def event(time: float, seq: int) -> _ScheduledEvent:
    return _ScheduledEvent(time, seq, _noop)


class TestCleanRuns:
    def test_sanitized_scenario_holds_all_invariants(self):
        router = build_system("pentium3")
        sanitizer = Sanitizer().attach(router)
        result = run_scenario(router, 5, table_size=120, seed=7)
        sanitizer.check_quiescent()
        assert result.completed
        assert sanitizer.stats.events_checked > 0
        assert sanitizer.stats.conservation_checks > sanitizer.stats.events_checked
        assert sanitizer.stats.quiescent_checks == 1

    def test_checked_mode_is_observe_only(self):
        cell = GridCell(1, "pentium3", 11, 100)
        plain = json.dumps(run_cell(cell), sort_keys=True)
        checked = json.dumps(run_cell(cell, sanitize=True), sort_keys=True)
        assert plain == checked

    def test_detach_restores_unobserved_simulator(self):
        sim = Simulator()
        sanitizer = Sanitizer().attach_simulator(sim)
        sanitizer.detach()
        assert sim.observer is None

    def test_simulator_refuses_second_observer(self):
        sim = Simulator()
        Sanitizer().attach_simulator(sim)
        with pytest.raises(ValueError):
            Sanitizer().attach_simulator(sim)


class TestEventInvariants:
    def test_monotonic_clock_violation(self):
        sanitizer = Sanitizer().attach_simulator(Simulator())
        sanitizer.before_fire(event(5.0, 0))
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.before_fire(event(3.0, 1))
        assert excinfo.value.invariant == "monotonic-clock"

    def test_stable_tie_break_violation(self):
        sanitizer = Sanitizer().attach_simulator(Simulator())
        sanitizer.before_fire(event(1.0, 5))
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.before_fire(event(1.0, 4))
        assert excinfo.value.invariant == "stable-tie-break"

    def test_now_rewind_detected_after_fire(self):
        sim = Simulator()
        sanitizer = Sanitizer().attach_simulator(sim)
        sim.now = 10.0
        sanitizer.after_fire(event(10.0, 0))
        sim.now = 2.0
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.after_fire(event(10.0, 1))
        assert excinfo.value.invariant == "monotonic-clock"

    def test_heap_corruption_detected(self):
        sim = Simulator()
        sanitizer = Sanitizer().attach_simulator(sim)
        for delay in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(delay, _noop)
        # Mutate a queued event in place: the heap is ordered by the
        # entry's key, so the event would now fire at a time it does
        # not carry — exactly the corruption the scan exists to catch.
        sim._queue[-1][2].time = 0.0
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.before_fire(event(0.0, 99))
        assert excinfo.value.invariant == "heap-integrity"
        assert "mutated in place" in excinfo.value.message

    def test_heap_order_violation_detected(self):
        sim = Simulator()
        sanitizer = Sanitizer().attach_simulator(sim)
        for delay in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(delay, _noop)
        # Key and event agree, but the leaf sorts before its parent.
        _time, seq, leaf = sim._queue[-1]
        leaf.time = 0.0
        sim._queue[-1] = (0.0, seq, leaf)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.before_fire(event(0.0, 99))
        assert excinfo.value.invariant == "heap-integrity"
        assert "sorts before its parent" in excinfo.value.message

    def test_error_carries_event_trace(self):
        sanitizer = Sanitizer().attach_simulator(Simulator())
        sanitizer.before_fire(event(1.0, 0))
        sanitizer.before_fire(event(2.0, 1))
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.before_fire(event(0.5, 2))
        error = excinfo.value
        assert [record["seq"] for record in error.trace] == [0, 1, 2]
        described = error.describe()
        assert "monotonic-clock" in described
        assert "recent events" in described


class TestQuiescentInvariants:
    @pytest.fixture()
    def quiesced_router(self):
        router = build_system("pentium3")
        sanitizer = Sanitizer().attach(router)
        run_scenario(router, 1, table_size=80, seed=3)
        return router, sanitizer

    def test_conservation_violation(self, quiesced_router):
        router, sanitizer = quiesced_router
        router.speaker.audit.accepted += 1
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check_quiescent()
        assert excinfo.value.invariant == "prefix-conservation"

    def test_rib_fib_disagreement(self, quiesced_router):
        router, sanitizer = quiesced_router
        prefix, _next_hop = next(iter(router.fib.routes()))
        router.fib.delete_route(prefix)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check_quiescent()
        assert excinfo.value.invariant == "rib-fib-agreement"
        assert "Loc-RIB only" in excinfo.value.message

    def test_clean_router_passes(self, quiesced_router):
        _router, sanitizer = quiesced_router
        sanitizer.check_quiescent()
        assert sanitizer.stats.quiescent_checks == 1


class TestAuditLedger:
    def test_audit_balances_through_a_full_scenario(self):
        router = build_system("cisco")
        run_scenario(router, 5, table_size=100, seed=9)
        audit = router.speaker.audit
        assert audit.balanced()
        assert audit.announced > 0
        assert audit.classified_announcements == audit.announced

    def test_imbalance_description_names_counters(self):
        router = build_system("pentium3")
        run_scenario(router, 1, table_size=50, seed=1)
        audit = router.speaker.audit
        audit.announced += 3
        assert not audit.balanced()
        assert "announced" in audit.describe_imbalance()


class TestCheckCli:
    """Checked mode on the command line: ``scenario --sanitize``."""

    ARGS = ["scenario", "--platform", "pentium3", "--scenario", "5", "--table-size", "100"]

    def test_check_command_exits_zero_on_clean_run(self, capsys):
        from repro.experiments.runner import main as bgpbench

        assert bgpbench(self.ARGS) == 0
        plain = capsys.readouterr().out
        code = bgpbench(self.ARGS + ["--sanitize"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(plain)  # observe-only: the same result line
        assert "sanitizer:" in out
        assert "all invariants held" in out

    def test_sanitizer_composes_with_telemetry(self, capsys, tmp_path):
        from repro.experiments.runner import main as bgpbench

        metrics = tmp_path / "run.metrics.jsonl"
        assert bgpbench(self.ARGS + ["--sanitize", "--metrics", str(metrics)]) == 0
        assert "all invariants held" in capsys.readouterr().out
        assert metrics.read_text()

    def test_violation_exits_one_with_the_event_trace(self, capsys, monkeypatch):
        from repro.experiments.runner import main as bgpbench

        def violated(self):
            raise SanitizerError("rib-fib-agreement", "seeded", 1.0, [])

        monkeypatch.setattr(Sanitizer, "check_quiescent", violated)
        assert bgpbench(self.ARGS + ["--sanitize"]) == 1
        captured = capsys.readouterr()
        assert "rib-fib-agreement violated" in captured.err
        assert "all invariants held" not in captured.out
