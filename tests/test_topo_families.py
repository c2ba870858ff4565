"""Tests for the topology benchmark families and their grid plumbing."""

import pytest

import repro.topo
from repro.experiments.runner import main
from repro.grid.baseline import bless, compare, load_golden, trim_for_golden
from repro.grid.cache import cell_key
from repro.grid.cells import result_json
from repro.grid.executor import run_grid
from repro.topo.families import (
    TOPO_FAMILIES,
    TopoCell,
    default_topo_grid,
    pick_origins,
    run_topo_cell,
)
from repro.workload.astopo import AsTopology

# A tiny hierarchy (2x4x10 = 18 ASes) keeps each run in the tens of ms.
SMALL = dict(tier1=2, tier2=4, stubs=10)


class TestTopoCell:
    def test_cell_id_defaults(self):
        assert TopoCell(family="convergence").cell_id == (
            "topo-convergence-2x5x18-seed42"
        )

    def test_cell_id_suffixes(self):
        cell = TopoCell(
            family="churn",
            mrai=30.0,
            damping=True,
            origins=3,
            flaps=6,
            flap_interval=45.0,
            measured=1,
            platform="xeon",
        )
        assert cell.cell_id == (
            "topo-churn-2x5x18-seed42-mrai30-damp-o3-flap6x45-m1-xeon"
        )

    def test_flap_suffix_is_churn_only(self):
        cell = TopoCell(family="convergence", flaps=6)
        assert "flap" not in cell.cell_id

    def test_spec_roundtrip(self):
        for family in TOPO_FAMILIES:
            cell = TopoCell(family=family, mrai=15.0, origins=2, measured=1)
            assert TopoCell.from_spec(cell.spec()) == cell

    def test_to_jsonable_is_spec(self):
        cell = TopoCell(family="withdraw")
        assert cell.to_jsonable() == cell.spec()
        assert cell.spec()["kind"] == "topo"

    def test_key_varies_with_spec_and_fingerprint(self):
        a = TopoCell(family="convergence")
        b = TopoCell(family="withdraw")
        assert cell_key(a, "f1") != cell_key(b, "f1")
        assert cell_key(a, "f1") != cell_key(a, "f2")
        assert cell_key(a, "f1") == cell_key(TopoCell(family="convergence"), "f1")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="flood"),
            dict(family="churn", tier1=0),
            dict(family="churn", stubs=1),
            dict(family="churn", origins=0),
            dict(family="churn", origins=99),
            dict(family="churn", link_delay=0.0),
            dict(family="churn", mrai=-1.0),
            dict(family="churn", flaps=0),
            dict(family="churn", flap_interval=0.0),
            dict(family="churn", measured=99),
            dict(family="churn", platform="vax"),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TopoCell(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("link_delay", float("nan")),
            ("link_delay", float("inf")),
            ("mrai", float("nan")),
            ("mrai", float("inf")),
            ("flap_interval", float("nan")),
            ("flap_interval", float("inf")),
        ],
    )
    def test_non_finite_spec_rejected_naming_the_field(self, field, value):
        # Every one of these constructed before (the id read "...-mrainan")
        # and would have reached the event heap as a time.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TopoCell(family="churn", **{field: value})


class TestTopoCli:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--origins", "99"], "origins must be in 1..18: 99"),
            (["--mrai", "nan"], "mrai must be finite: nan"),
            (["--tier1", "0"], "degenerate hierarchy 0x5x18"),
        ],
    )
    def test_bad_spec_is_a_one_line_usage_error(self, capsys, monkeypatch, argv, message):
        def no_build(*args, **kwargs):
            raise AssertionError("a cell was built from a bad spec")

        monkeypatch.setattr(repro.topo, "run_topo_cell", no_build)
        with pytest.raises(SystemExit) as raised:
            main(["topo", *argv])
        captured = capsys.readouterr()
        assert raised.value.code == 2
        assert captured.out == ""
        assert captured.err == f"bgpbench topo: {message}\n"


class TestPickOrigins:
    def test_seeded_sorted_stub_sample(self):
        topology = AsTopology.hierarchy(seed=42, **SMALL)
        origins = pick_origins(topology, 3, seed=7)
        assert origins == pick_origins(topology, 3, seed=7)
        assert list(origins) == sorted(origins)
        for asn in origins:
            assert topology.tier_of(asn) == 3

    def test_too_many_origins_rejected(self):
        topology = AsTopology.hierarchy(seed=42, **SMALL)
        with pytest.raises(ValueError, match="stubs"):
            pick_origins(topology, 11, seed=7)


class TestRunTopoCell:
    def test_convergence_reaches_quiescence(self):
        result = run_topo_cell(TopoCell(family="convergence", **SMALL))
        assert result["completed"] is True
        assert result["transactions"] > 0
        assert result["fib_size_after"] > 0
        assert result["duration"] > 0
        assert result["cell"]["family"] == "convergence"
        assert len(result["nodes"]) == result["ases"]

    def test_withdraw_explores_ghost_paths(self):
        result = run_topo_cell(TopoCell(family="withdraw", **SMALL))
        assert result["completed"] is True
        assert result["fib_size_after"] == 0  # every route gone
        assert result["ghost_paths"] > 0  # path exploration happened

    def test_churn_damping_suppresses_flaps(self):
        cell = dict(family="churn", flaps=6, flap_interval=10.0, **SMALL)
        undamped = run_topo_cell(TopoCell(**cell))
        damped = run_topo_cell(TopoCell(damping=True, **cell))
        assert undamped["damping_suppressed"] == 0
        assert damped["damping_suppressed"] > 0
        # Suppression shields the graph from some of the churn.
        assert damped["updates_sent"] < undamped["updates_sent"]

    def test_byte_identical_across_runs(self):
        cell = TopoCell(family="withdraw", mrai=15.0, origins=2, **SMALL)
        a = run_topo_cell(cell)
        b = run_topo_cell(cell)
        assert result_json({cell.cell_id: a}) == result_json({cell.cell_id: b})

    def test_sanitize_is_observe_only(self):
        cell = TopoCell(family="convergence", **SMALL)
        plain = run_topo_cell(cell)
        checked = run_topo_cell(cell, sanitize=True)
        assert result_json({cell.cell_id: plain}) == result_json(
            {cell.cell_id: checked}
        )

    def test_telemetry_artifact_written_and_deterministic(self, tmp_path):
        cell = TopoCell(family="convergence", **SMALL)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        run_topo_cell(cell, telemetry_dir=str(a_dir))
        run_topo_cell(cell, telemetry_dir=str(b_dir))
        artifact = f"{cell.cell_id}.metrics.jsonl"
        a_bytes = (a_dir / artifact).read_bytes()
        assert a_bytes
        assert a_bytes == (b_dir / artifact).read_bytes()

    def test_hundred_as_graph_deterministic_and_sanitized(self):
        """The acceptance bar: a 100+-AS convergence run is clean under
        the sanitizer and byte-identical across runs."""
        cell = TopoCell(
            family="convergence", tier1=4, tier2=16, stubs=90, origins=3
        )
        a = run_topo_cell(cell, sanitize=True)
        b = run_topo_cell(cell, sanitize=True)
        assert a["ases"] == 110
        assert a["completed"] is True
        assert result_json({cell.cell_id: a}) == result_json({cell.cell_id: b})


class TestGridIntegration:
    def cells(self):
        return [
            TopoCell(family="convergence", **SMALL),
            TopoCell(family="withdraw", **SMALL),
        ]

    def test_run_grid_executes_topo_cells(self):
        report = run_grid(self.cells(), workers=2)
        assert report.ok
        assert set(report.results) == {cell.cell_id for cell in self.cells()}
        for result in report.results.values():
            assert result["cell"]["kind"] == "topo"

    def test_golden_roundtrip(self, tmp_path):
        report = run_grid(self.cells(), workers=1)
        grid = {"kind": "topo", "cells": [cell.spec() for cell in self.cells()]}
        path = bless(tmp_path / "topo.json", report.results, grid)
        golden = load_golden(path)
        assert golden["grid"] == grid
        fresh = {
            cell_id: trim_for_golden(result)
            for cell_id, result in run_grid(self.cells(), workers=1).results.items()
        }
        verdict = compare(golden["cells"], fresh)
        assert verdict.ok, verdict.format()

    def test_default_topo_grid_shape(self):
        cells = default_topo_grid()
        assert [cell.family for cell in cells] == [
            "convergence",
            "withdraw",
            "churn",
            "churn",
        ]
        assert cells[-1].damping
        assert len({cell.cell_id for cell in cells}) == len(cells)
