"""Unit tests for the perf budget gate and the ``bgpbench perf`` CLI."""

import json

import pytest

from repro.experiments.runner import main as bgpbench
from repro.perf import gate


def result(ops_per_s: float, ops: int = 1000) -> dict:
    return {
        "ops": ops,
        "wall_s": ops / ops_per_s,
        "ops_per_s": ops_per_s,
        "py_version": "3.12.0",
        "platform": "Linux-x86_64",
    }


RESULTS = {
    "update_decode": result(200_000.0),
    "rib_churn": result(600_000.0),
}


class TestCheck:
    def test_all_within_budget(self):
        budgets = gate.bless(RESULTS, "quick")
        assert gate.check(RESULTS, budgets) == []

    def test_floor_violation(self):
        budgets = gate.bless(RESULTS, "quick")
        slow = dict(RESULTS)
        # measured/4 floor * 0.5 slack => must drop below 1/8 to trip.
        slow["update_decode"] = result(20_000.0)
        violations = gate.check(slow, budgets)
        assert [v.kind for v in violations] == ["floor"]
        assert violations[0].workload == "update_decode"
        assert "ops/s" in violations[0].detail

    def test_floor_honours_tolerance(self):
        budgets = {"floors": {"update_decode": {"min_ops_per_s": 100_000.0}}}
        measured = {"update_decode": result(60_000.0)}
        assert gate.check(measured, budgets, tolerance=0.5) == []
        assert [v.kind for v in gate.check(measured, budgets, tolerance=0.0)] == [
            "floor"
        ]

    def test_missing_workloads_reported(self):
        budgets = gate.bless(RESULTS, "quick")
        partial = {"update_decode": RESULTS["update_decode"]}
        assert [(v.kind, v.workload) for v in gate.check(partial, budgets)] == [
            ("missing", "rib_churn")
        ]

    def test_zero_rate_is_a_floor_violation(self):
        budgets = gate.bless(RESULTS, "quick")
        stalled = {**RESULTS, "rib_churn": {**result(1.0), "ops_per_s": 0.0}}
        assert [(v.kind, v.workload) for v in gate.check(stalled, budgets)] == [
            ("floor", "rib_churn")
        ]
        # A zero floor (blessed from a zero rate) never trips.
        assert gate.check(stalled, gate.bless(stalled, "quick")) == []


class TestBless:
    def test_floors_get_headroom(self):
        budgets = gate.bless(RESULTS, "quick")
        assert set(budgets) == {"profile", "floors"}
        assert budgets["profile"] == "quick"
        assert budgets["floors"]["update_decode"]["min_ops_per_s"] == pytest.approx(
            200_000.0 / gate.BLESS_HEADROOM
        )

    def test_blessed_budgets_round_trip(self, tmp_path):
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps(gate.bless(RESULTS, "quick")))
        assert gate.check(RESULTS, gate.load_budgets(path)) == []

    def test_load_rejects_non_budget_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"cells": {}}')
        with pytest.raises(ValueError):
            gate.load_budgets(path)


class TestCli:
    def test_quick_run_writes_results_and_passes_gate(self, tmp_path, capsys):
        output = tmp_path / "BENCH.json"
        budgets = tmp_path / "budgets.json"
        assert (
            bgpbench(
                [
                    "perf", "--quick",
                    "--output", str(output),
                    "--bless", "--budgets", str(budgets),
                ]
            )
            == 0
        )
        results = json.loads(output.read_text())
        assert set(results) == {
            "update_decode",
            "rib_churn",
            "decision_process",
            "end_to_end",
        }
        for entry in results.values():
            assert set(entry) == {"ops", "wall_s", "ops_per_s", "py_version", "platform"}
            assert entry["ops"] > 0
        assert "speedup" not in capsys.readouterr().out

        blessed = json.loads(budgets.read_text())
        assert blessed["profile"] == "quick"
        assert set(blessed["floors"]) == set(results)
        assert bgpbench(["perf", "--quick", "--check", "--budgets", str(budgets)]) == 0

    def test_check_fails_against_impossible_budgets(self, tmp_path, capsys):
        budgets = tmp_path / "budgets.json"
        budgets.write_text(
            json.dumps(
                {
                    "profile": "quick",
                    "floors": {"update_decode": {"min_ops_per_s": 1e15}},
                }
            )
        )
        code = bgpbench(
            ["perf", "--quick", "--check", "--budgets", str(budgets), "--tolerance", "0"]
        )
        assert code == 1
        assert "FAIL [floor] update_decode" in capsys.readouterr().out

    def test_check_missing_budget_file_is_usage_error(self, tmp_path):
        code = bgpbench(
            ["perf", "--quick", "--check", "--budgets", str(tmp_path / "nope.json")]
        )
        assert code == 2
