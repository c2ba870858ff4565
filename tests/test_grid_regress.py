"""The golden-baseline regression gate: diffs, exit codes, output."""

import json

import pytest

from repro.experiments.runner import main
from repro.grid import bless, compare, load_golden
from repro.grid.baseline import GOLDEN_FORMAT, GoldenError, MetricDrift, grid_cells


def cell_result(cell_id="s1-xeon-seed42-n100", tps=100.0, transactions=100,
                duration=1.0, fib=100, completed=True):
    scenario, platform, seed, size = cell_id.split("-")
    return {
        "cell": {
            "scenario": int(scenario[1:]),
            "platform": platform,
            "seed": int(seed[4:]),
            "table_size": int(size[1:]),
        },
        "completed": completed,
        "transactions": transactions,
        "duration": duration,
        "transactions_per_second": tps,
        "fib_size_after": fib,
    }


GOLDEN = {
    "s1-xeon-seed42-n100": cell_result("s1-xeon-seed42-n100", tps=100.0),
    "s2-xeon-seed42-n100": cell_result("s2-xeon-seed42-n100", tps=500.0),
}


class TestCompare:
    def test_identical_results_pass(self):
        report = compare(GOLDEN, dict(GOLDEN), tolerance=0.05)
        assert report.ok
        assert sorted(report.matching) == sorted(GOLDEN)
        assert not report.drifted and not report.missing

    def test_drift_within_tolerance_passes(self):
        fresh = dict(GOLDEN)
        fresh["s1-xeon-seed42-n100"] = cell_result("s1-xeon-seed42-n100", tps=104.0)
        assert compare(GOLDEN, fresh, tolerance=0.05).ok

    def test_drift_beyond_tolerance_fails(self):
        fresh = dict(GOLDEN)
        fresh["s1-xeon-seed42-n100"] = cell_result("s1-xeon-seed42-n100", tps=110.0)
        report = compare(GOLDEN, fresh, tolerance=0.05)
        assert not report.ok
        (drift,) = report.drifted
        assert drift.cell_id == "s1-xeon-seed42-n100"
        assert drift.metric == "transactions_per_second"
        assert drift.relative_error == pytest.approx(0.10)

    def test_exact_metric_mismatch_fails_regardless_of_tolerance(self):
        fresh = dict(GOLDEN)
        fresh["s1-xeon-seed42-n100"] = cell_result(
            "s1-xeon-seed42-n100", transactions=99
        )
        report = compare(GOLDEN, fresh, tolerance=10.0)
        assert not report.ok
        assert any(d.metric == "transactions" for d in report.drifted)

    def test_stall_flag_flip_fails(self):
        fresh = dict(GOLDEN)
        fresh["s1-xeon-seed42-n100"] = cell_result(
            "s1-xeon-seed42-n100", completed=False
        )
        assert not compare(GOLDEN, fresh).ok

    def test_missing_cell_fails(self):
        fresh = {"s1-xeon-seed42-n100": GOLDEN["s1-xeon-seed42-n100"]}
        report = compare(GOLDEN, fresh)
        assert not report.ok
        assert report.missing == ["s2-xeon-seed42-n100"]

    def test_extra_cell_is_informational(self):
        fresh = dict(GOLDEN)
        fresh["s3-xeon-seed42-n100"] = cell_result("s3-xeon-seed42-n100")
        report = compare(GOLDEN, fresh)
        assert report.ok
        assert report.extra == ["s3-xeon-seed42-n100"]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare(GOLDEN, dict(GOLDEN), tolerance=-0.1)


class TestReportFormatting:
    def test_pass_output_names_tolerance(self):
        text = compare(GOLDEN, dict(GOLDEN), tolerance=0.05).format()
        assert "2/2 golden cells match" in text
        assert "±5%" in text
        assert text.endswith("PASS")

    def test_drift_output_is_human_readable(self):
        fresh = dict(GOLDEN)
        fresh["s1-xeon-seed42-n100"] = cell_result("s1-xeon-seed42-n100", tps=110.0)
        text = compare(GOLDEN, fresh, tolerance=0.05).format()
        assert "DRIFT" in text
        assert "s1-xeon-seed42-n100" in text
        assert "100.0 -> 110.0" in text
        assert "+10.00%" in text
        assert "FAIL" in text

    def test_missing_output_names_the_cell(self):
        fresh = {"s1-xeon-seed42-n100": GOLDEN["s1-xeon-seed42-n100"]}
        text = compare(GOLDEN, fresh).format()
        assert "MISSING s2-xeon-seed42-n100" in text

    def test_exact_drift_description(self):
        drift = MetricDrift("c", "transactions", 100, 99, 0.0)
        assert "exact-match" in drift.describe()


class TestGoldenFiles:
    def test_bless_roundtrips_through_load(self, tmp_path):
        path = bless(
            tmp_path / "golden.json", GOLDEN,
            grid={"scenarios": [1, 2], "platforms": ["xeon"], "seeds": [42],
                  "table_sizes": [100]},
            tolerance=0.07,
        )
        golden = load_golden(path)
        assert golden["format"] == GOLDEN_FORMAT
        assert golden["tolerance"] == 0.07
        assert set(golden["cells"]) == set(GOLDEN)
        # Golden cells pin the headline metrics only, no phase traces.
        assert "phases" not in golden["cells"]["s1-xeon-seed42-n100"]

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "cells": {}}))
        with pytest.raises(ValueError):
            load_golden(path)


class TestRegressCli:
    GRID_ARGS = [
        "--workers", "1", "--no-cache",
    ]

    def bless_tiny_golden(self, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        # First bless on a missing golden falls back to the default grid,
        # which is too big for a test — pre-seed the grid spec instead.
        bless(golden, {}, grid={"scenarios": [1], "platforms": ["pentium3"],
                                "seeds": [7], "table_sizes": [100]})
        code = main(["regress", "--golden", str(golden), "--bless", *self.GRID_ARGS])
        capsys.readouterr()
        assert code == 0
        return golden

    def test_fresh_run_against_own_golden_passes(self, tmp_path, capsys):
        golden = self.bless_tiny_golden(tmp_path, capsys)
        code = main(["regress", "--golden", str(golden), *self.GRID_ARGS])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_perturbed_golden_fails_with_diff(self, tmp_path, capsys):
        golden = self.bless_tiny_golden(tmp_path, capsys)
        doc = json.loads(golden.read_text())
        cell_id = next(iter(doc["cells"]))
        doc["cells"][cell_id]["transactions_per_second"] *= 1.2
        golden.write_text(json.dumps(doc))
        code = main(["regress", "--golden", str(golden), *self.GRID_ARGS])
        out = capsys.readouterr().out
        assert code == 1
        assert "DRIFT" in out and cell_id in out

    def test_missing_cell_in_fresh_results_fails(self, tmp_path, capsys):
        golden = self.bless_tiny_golden(tmp_path, capsys)
        doc = json.loads(golden.read_text())
        phantom = cell_result("s1-pentium3-seed8-n100")
        doc["cells"]["s1-pentium3-seed8-n100"] = phantom
        golden.write_text(json.dumps(doc))
        code = main(["regress", "--golden", str(golden), *self.GRID_ARGS])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISSING s1-pentium3-seed8-n100" in out

    def test_absent_golden_without_bless_is_an_error(self, tmp_path, capsys):
        code = main(["regress", "--golden", str(tmp_path / "nope.json"),
                     *self.GRID_ARGS])
        err = capsys.readouterr().err
        assert code == 2
        assert "no golden baseline" in err

    def test_tolerance_override(self, tmp_path, capsys):
        golden = self.bless_tiny_golden(tmp_path, capsys)
        doc = json.loads(golden.read_text())
        cell_id = next(iter(doc["cells"]))
        doc["cells"][cell_id]["transactions_per_second"] *= 1.02
        golden.write_text(json.dumps(doc))
        assert main(["regress", "--golden", str(golden), "--tolerance", "0.5",
                     *self.GRID_ARGS]) == 0
        capsys.readouterr()
        assert main(["regress", "--golden", str(golden), "--tolerance", "0.001",
                     *self.GRID_ARGS]) == 1
        capsys.readouterr()


TOPO_SPEC = {
    "kind": "topo", "family": "convergence", "tier1": 2, "tier2": 4, "stubs": 10,
    "seed": 42, "link_delay": 0.01, "mrai": 0.0, "damping": False, "origins": 1,
    "flaps": 4, "flap_interval": 60.0,
}


def golden_doc(grid, cells=None):
    return json.dumps(
        {"format": GOLDEN_FORMAT, "tolerance": 0.05, "grid": grid, "cells": cells or {}}
    )


class TestMalformedGolden:
    """A golden file that cannot be used is a usage error — one
    ``regress: <file>: ...`` line and exit 2 — never a traceback."""

    @pytest.mark.parametrize(
        "text, names",
        [
            ("[]", "must be an object, got list"),
            (json.dumps({"format": GOLDEN_FORMAT}), "key 'grid'"),
            ("{not json", "Expecting property name"),
            (
                golden_doc({"kind": "topo", "cells": [
                    TOPO_SPEC, {k: v for k, v in TOPO_SPEC.items() if k != "tier1"},
                ]}),
                "key 'grid': missing key 'tier1'",
            ),
            (
                golden_doc({"scenarios": [9], "platforms": ["xeon"], "seeds": [1],
                            "table_sizes": [50]}),
                "key 'grid': no scenario 9",
            ),
            (
                golden_doc({"scenarios": [1], "platforms": ["xeon"], "seeds": [1]}),
                "key 'grid': missing key 'table_sizes'",
            ),
            (
                golden_doc(
                    {"scenarios": [1], "platforms": ["xeon"], "seeds": [1],
                     "table_sizes": [50]},
                    cells={"s1-xeon-seed1-n50": {"transactions": 50}},
                ),
                "cell 's1-xeon-seed1-n50' is missing key 'fib_size_after'",
            ),
        ],
        ids=["json-list", "no-grid", "not-json", "topo-cell-missing-field",
             "scenario-out-of-range", "missing-axis", "cell-missing-metric"],
    )
    def test_usage_error_names_file_and_key(self, tmp_path, capsys, text, names):
        golden = tmp_path / "golden.json"
        golden.write_text(text)
        code = main(["regress", "--golden", str(golden), "--workers", "1",
                     "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"regress: {golden}: ")
        assert names in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_grid_cells_reads_both_shapes(self):
        topo = grid_cells({"kind": "topo", "cells": [TOPO_SPEC]})
        assert [cell.cell_id for cell in topo] == ["topo-convergence-2x4x10-seed42"]
        cartesian = grid_cells({"scenarios": [2, 1], "platforms": ["xeon"],
                                "seeds": [7], "table_sizes": [50]})
        assert [cell.cell_id for cell in cartesian] == [
            "s1-xeon-seed7-n50", "s2-xeon-seed7-n50",
        ]

    def test_golden_error_is_a_value_error(self):
        with pytest.raises(GoldenError):
            grid_cells({"kind": "topo"})
        assert issubclass(GoldenError, ValueError)


class TestRegressPartialFailure:
    """Exit-code semantics: 0 clean / 1 drift / 2 missing golden / 3
    partial failure (cells never produced a result)."""

    GRID_ARGS = ["--workers", "1", "--no-cache"]

    def bless_tiny_golden(self, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        bless(golden, {}, grid={"scenarios": [1], "platforms": ["pentium3"],
                                "seeds": [7], "table_sizes": [100]})
        assert main(["regress", "--golden", str(golden), "--bless",
                     *self.GRID_ARGS]) == 0
        capsys.readouterr()
        return golden

    def chaos_plan(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"s1-pentium3-seed7-n100": {"kind": "crash"}}))
        return str(plan)

    def test_partial_run_exits_3_not_1(self, tmp_path, capsys):
        golden = self.bless_tiny_golden(tmp_path, capsys)
        code = main(["regress", "--golden", str(golden),
                     "--chaos", self.chaos_plan(tmp_path),
                     "--journal", str(tmp_path / "journal.jsonl"),
                     *self.GRID_ARGS])
        out = capsys.readouterr().out
        assert code == 3
        assert "CRASHED" in out

    def test_bless_refuses_partial_run(self, tmp_path, capsys):
        golden = self.bless_tiny_golden(tmp_path, capsys)
        before = golden.read_text()
        code = main(["regress", "--golden", str(golden), "--bless",
                     "--chaos", self.chaos_plan(tmp_path),
                     "--journal", str(tmp_path / "journal.jsonl"),
                     *self.GRID_ARGS])
        err = capsys.readouterr().err
        assert code == 3
        assert "refusing to bless" in err
        assert golden.read_text() == before

    def test_resilience_flags_do_not_change_a_clean_verdict(self, tmp_path, capsys):
        golden = self.bless_tiny_golden(tmp_path, capsys)
        code = main(["regress", "--golden", str(golden),
                     "--retries", "2", "--cell-timeout", "120",
                     "--journal", str(tmp_path / "journal.jsonl"),
                     *self.GRID_ARGS])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out


class TestGridCli:
    def test_grid_writes_output_and_reports_cache(self, tmp_path, capsys):
        args = ["grid", "--scenarios", "1", "--platforms", "pentium3",
                "--seeds", "7", "--table-sizes", "100",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "out.json")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 cache hits (0%)" in out
        results = json.loads((tmp_path / "out.json").read_text())
        assert list(results) == ["s1-pentium3-seed7-n100"]

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 cache hits (100%)" in out
