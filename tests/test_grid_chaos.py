"""The chaos harness itself, and the CLI surface of resilient runs.

The chaos plan is test infrastructure, so it gets its own tests: fault
specs must round-trip through JSON (CI writes plan files), apply to
exactly the attempts they claim, and reject malformed input loudly —
a chaos plan that silently no-ops would green-light a broken supervisor.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import EXIT_PARTIAL_FAILURE, main
from repro.grid import ChaosError, ChaosFault, ChaosPlan, ChaosPlanError
from repro.grid.chaos import apply_chaos

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks/golden/grid-small.json"


class TestChaosSpecs:
    def test_plan_round_trips_through_json(self, tmp_path):
        plan = ChaosPlan.from_spec({
            "a": {"kind": "crash", "exit_code": 7},
            "b": {"kind": "hang", "hang_seconds": 2.5},
            "c": {"kind": "flaky", "times": 3},
        })
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_jsonable()))
        loaded = ChaosPlan.from_file(path)
        assert loaded == plan
        assert loaded.get("a").exit_code == 7
        assert loaded.get("b").hang_seconds == 2.5
        assert loaded.get("missing") is None

    def test_times_bounds_the_affected_attempts(self):
        fault = ChaosFault("flaky", times=2)
        assert fault.applies(0) and fault.applies(1)
        assert not fault.applies(2)
        always = ChaosFault("crash")
        assert always.applies(0) and always.applies(99)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosFault("segfault")

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos fault keys"):
            ChaosFault.from_spec({"kind": "crash", "exitcode": 1})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ChaosFault("flaky", times=0)
        with pytest.raises(ValueError):
            ChaosFault("hang", hang_seconds=0.0)

    @pytest.mark.parametrize("spec, names", [
        ([{"kind": "crash"}], ["plan must be an object", "list"]),
        ({"cell-a": {"times": 1}}, ["cell 'cell-a'", "missing key 'kind'"]),
        ({"cell-a": "crash"}, ["cell 'cell-a'", "fault must be an object", "str"]),
        ({"cell-a": {"kind": "flaky", "times": "x"}}, ["cell 'cell-a'", "'times'", "'x'"]),
        ({"cell-a": {"kind": "hang", "hang_seconds": []}}, ["'hang_seconds'"]),
        ({"cell-a": {"kind": "segfault"}}, ["cell 'cell-a'", "unknown chaos kind"]),
    ])
    def test_malformed_plan_is_one_named_error(self, tmp_path, spec, names):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ChaosPlanError) as raised:
            ChaosPlan.from_file(path)
        for name in [str(path), *names]:
            assert name in str(raised.value)

    def test_unreadable_plan_file_is_the_same_error(self, tmp_path):
        with pytest.raises(ChaosPlanError, match="missing.json"):
            ChaosPlan.from_file(tmp_path / "missing.json")
        (tmp_path / "torn.json").write_bytes(b'{"cell-a": \xff')
        with pytest.raises(ChaosPlanError, match="torn.json"):
            ChaosPlan.from_file(tmp_path / "torn.json")

    def test_flaky_raises_chaos_error_only_while_applicable(self):
        fault = ChaosFault("flaky", times=1)
        with pytest.raises(ChaosError, match="injected flaky fault"):
            apply_chaos(fault, attempt=0)
        apply_chaos(fault, attempt=1)  # past the budget: a no-op
        apply_chaos(None, attempt=0)   # no fault: a no-op


class TestGridCliResilience:
    CELL_ARGS = [
        "grid", "--scenarios", "1", "--platforms", "cisco", "pentium3",
        "--seeds", "7", "--table-sizes", "60", "--no-cache",
    ]

    def write_plan(self, tmp_path, spec):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(spec))
        return str(path)

    @pytest.mark.parametrize("command", [
        CELL_ARGS,
        ["regress", "--golden", str(GOLDEN), "--no-cache"],
    ], ids=["grid", "regress"])
    def test_bad_chaos_plan_is_a_one_line_usage_error(self, tmp_path, capsys, command):
        plan = self.write_plan(tmp_path, {"s1-cisco-seed7-n60": {"times": 1}})
        with pytest.raises(SystemExit) as raised:
            main([*command, "--chaos", plan])
        captured = capsys.readouterr()
        assert raised.value.code == 2
        assert captured.out == ""
        assert captured.err == (
            f"{command[0]}: chaos plan {plan}: cell 's1-cisco-seed7-n60': "
            f"missing key 'kind'\n"
        )

    def test_chaos_run_exits_partial_failure_with_manifest(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path, {"s1-cisco-seed7-n60": {"kind": "crash"}}
        )
        manifest_path = tmp_path / "manifest.json"
        code = main([
            *self.CELL_ARGS, "--chaos", plan, "--retries", "1",
            "--journal", str(tmp_path / "journal.jsonl"),
            "--manifest", str(manifest_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL_FAILURE
        assert "CRASHED" in out and "s1-cisco-seed7-n60" in out

        manifest = json.loads(manifest_path.read_text())
        failure = manifest["failures"]["s1-cisco-seed7-n60"]
        assert failure["outcome"] == "crashed"
        assert len(failure["attempts"]) == 2
        assert manifest["worker_crashes"] == 2
        assert list(manifest["results"]) == ["s1-pentium3-seed7-n60"]

    def test_flaky_cell_recovers_and_exits_zero(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path, {"s1-pentium3-seed7-n60": {"kind": "flaky", "times": 1}}
        )
        code = main([
            *self.CELL_ARGS, "--chaos", plan, "--retries", "2",
            "--journal", str(tmp_path / "journal.jsonl"),
            "--output", str(tmp_path / "out.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 retries" in out

        # Byte-identical to an unsupervised clean run.
        clean = tmp_path / "clean.json"
        assert main([*self.CELL_ARGS, "--output", str(clean)]) == 0
        capsys.readouterr()
        assert (tmp_path / "out.json").read_text() == clean.read_text()

    def test_cli_resume_round_trip(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        plan = self.write_plan(
            tmp_path, {"s1-cisco-seed7-n60": {"kind": "crash"}}
        )
        code = main([*self.CELL_ARGS, "--chaos", plan, "--journal", journal])
        capsys.readouterr()
        assert code == EXIT_PARTIAL_FAILURE

        # The interrupting fault is gone; --resume finishes the run
        # without re-executing the completed cell.
        code = main([
            *self.CELL_ARGS, "--resume", "--journal", journal,
            "--output", str(tmp_path / "resumed.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 resumed" in out

        clean = tmp_path / "clean.json"
        assert main([*self.CELL_ARGS, "--output", str(clean)]) == 0
        capsys.readouterr()
        assert (tmp_path / "resumed.json").read_text() == clean.read_text()

    def test_strict_quarantines_and_reports(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path, {"s1-cisco-seed7-n60": {"kind": "flaky"}}
        )
        code = main([
            *self.CELL_ARGS, "--workers", "1", "--chaos", plan, "--max-failures", "1",
            "--journal", str(tmp_path / "journal.jsonl"),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL_FAILURE
        assert "QUARANTINED" in out
