"""The telemetry acceptance gates: observe-only, and a complete trace.

Two properties anchor the subsystem. First, instrumentation must be
invisible: a run with telemetry (and with the sanitizer attached too,
in either order) is byte-identical to a plain run. Second, a traced
scenario-5 run must produce a Chrome trace covering all three benchmark
phases whose span forest passes every structural invariant — nesting
and virtual-time monotonicity included.
"""

import json

import pytest

from repro.benchmark import run_scenario
from repro.experiments.runner import main as bgpbench
from repro.grid.cells import GridCell, run_cell
from repro.systems import build_system
from repro.telemetry import Telemetry
from repro.telemetry.export import parse_chrome_trace
from repro.telemetry.spans import validate_spans

SIZE = 120


def scenario_summary(platform, *, telemetry=None, sanitize=False):
    """One scenario-5 run reduced to its canonical JSON bytes. The
    sanitizer, when asked for, attaches after the telemetry and checks
    the quiescent invariants at the end."""
    router = build_system(platform)
    sanitizer = None
    if telemetry is not None:
        telemetry.attach(router)
    if sanitize:
        from repro.analysis.sanitizer import Sanitizer

        sanitizer = Sanitizer().attach(router)
    try:
        result = run_scenario(router, 5, table_size=SIZE, seed=7)
        if sanitizer is not None:
            sanitizer.check_quiescent()
            assert sanitizer.stats.events_checked > 0
    finally:
        if telemetry is not None:
            telemetry.detach()
        if sanitizer is not None:
            sanitizer.detach()
    return json.dumps(result.to_jsonable(), sort_keys=True)


class TestObserveOnly:
    @pytest.mark.parametrize("platform", ["cisco", "ixp2400", "pentium3", "xeon"])
    def test_instrumented_run_byte_identical(self, platform):
        assert scenario_summary(platform) == scenario_summary(
            platform, telemetry=Telemetry()
        )

    def test_identical_with_sanitizer_attached_after_telemetry(self):
        """Telemetry takes no simulator observer slot, so the sanitizer
        attaches after it and checks every event of a traced run."""
        plain = scenario_summary("pentium3")
        telemetry = Telemetry()
        both = scenario_summary("pentium3", telemetry=telemetry, sanitize=True)
        assert plain == both
        validate_spans(telemetry.tracer.spans())
        assert telemetry.tracer.spans("packet")

    def test_run_cell_result_unchanged_by_telemetry(self, tmp_path):
        cell = GridCell(scenario=5, platform="pentium3", seed=7, table_size=SIZE)
        plain = run_cell(cell)
        instrumented = run_cell(cell, telemetry_dir=str(tmp_path))
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            instrumented, sort_keys=True
        )


class TestTraceShape:
    @pytest.fixture(scope="class")
    def telemetry(self):
        telemetry = Telemetry()
        scenario_summary("cisco", telemetry=telemetry)
        return telemetry

    def test_spans_pass_every_invariant(self, telemetry):
        validate_spans(telemetry.tracer.spans())

    def test_trace_covers_all_three_phases(self, telemetry):
        phases = telemetry.tracer.spans("phase")
        assert [span.name for span in phases] == ["phase1", "phase2", "phase3"]
        # Phases are disjoint and ordered in virtual time.
        for earlier, later in zip(phases, phases[1:]):
            assert earlier.end <= later.start

    def test_packet_spans_nest_in_their_phase(self, telemetry):
        phases = {span.span_id: span for span in telemetry.tracer.spans("phase")}
        packets = telemetry.tracer.spans("packet")
        assert packets, "a scenario run must record packet spans"
        for packet in packets:
            phase = phases[packet.parent_id]
            assert phase.start <= packet.start <= packet.end <= phase.end

    def test_decisions_nest_in_update_messages(self, telemetry):
        messages = {span.span_id for span in telemetry.tracer.spans("message")}
        decisions = telemetry.tracer.spans("decision")
        assert decisions
        assert all(span.parent_id in messages for span in decisions)



class TestCliArtifacts:
    def test_scenario_trace_and_profile_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        code = bgpbench(
            [
                "scenario",
                "--platform", "pentium3",
                "--scenario", "5",
                "--table-size", str(SIZE),
                "--trace", str(trace_path),
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"[written {trace_path}]" in out
        assert "TASK" in out, "--profile must print the top table"
        assert [path.name for path in tmp_path.iterdir()] == ["run.trace.json"]

        spans = parse_chrome_trace(trace_path.read_text())
        validate_spans(spans)
        assert {s.name for s in spans if s.category == "phase"} == {
            "phase1", "phase2", "phase3"
        }

    def test_profile_alone_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """``--profile`` reads the router's CPU monitor: no trace is
        recorded or written."""
        monkeypatch.chdir(tmp_path)
        args = ["scenario", "--platform", "pentium3", "--scenario", "5",
                "--table-size", str(SIZE)]
        assert bgpbench(args) == 0
        plain = capsys.readouterr().out
        assert bgpbench([*args, "--profile"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(plain)
        assert "TASK" in out and "[written" not in out
        assert list(tmp_path.iterdir()) == []

    def test_run_cell_writes_valid_artifacts(self, tmp_path):
        cell = GridCell(scenario=1, platform="pentium3", seed=7, table_size=SIZE)
        run_cell(cell, sanitize=True, telemetry_dir=str(tmp_path))
        trace = tmp_path / f"{cell.cell_id}.trace.json"
        spans = parse_chrome_trace(trace.read_text())
        validate_spans(spans)
        assert spans, "cell trace must not be empty"
        assert list(tmp_path.iterdir()) == [trace]
