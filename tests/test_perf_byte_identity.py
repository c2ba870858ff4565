"""The perf-work acceptance gate: optimizations are invisible.

The trie-backed RIBs, interned attributes, and zero-copy codec are live
on every simulated run. This suite re-executes a sample of the
committed golden baselines — grid cells across all four platforms and
the full topology grid — from scratch and requires the canonical JSON
to match the blessed bytes exactly. Mirrors
``tests/test_telemetry_observe_only.py``: a performance layer, like an
observability layer, must not move a single digit of any result.
"""

import json
from pathlib import Path

import pytest

import repro.bgp
from repro.grid.baseline import trim_for_golden
from repro.grid.cells import GridCell, result_json, run_cell
from repro.topo.families import TopoCell

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "golden"

#: One fault-free grid cell per platform, plus the large-packet and
#: duplicate-announcement scenarios the hot paths serve most directly.
GRID_CELLS = [
    "s1-cisco-seed42-n150",
    "s1-ixp2400-seed42-n150",
    "s1-xeon-seed42-n150",
    "s4-pentium3-seed42-n150",
    "s5-pentium3-seed42-n150",
    "s8-pentium3-seed42-n150",
]


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text())["cells"]


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class TestGridByteIdentity:
    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("grid-small.json")

    @pytest.mark.parametrize("cell_id", GRID_CELLS)
    def test_cell_matches_blessed_bytes(self, golden, cell_id):
        blessed = golden[cell_id]
        cell = GridCell.from_spec(blessed["cell"])
        # The golden pins the trimmed metric subset; the comparison here
        # is still exact — zero tolerance, every float digit — unlike
        # ``bgpbench regress`` which allows relative drift.
        assert canonical(trim_for_golden(run_cell(cell))) == canonical(blessed)


class TestTopoByteIdentity:
    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("topo-small.json")

    def test_every_cell_matches_blessed_bytes(self, golden):
        for cell_id, blessed in sorted(golden.items()):
            cell = TopoCell.from_spec(blessed["cell"])
            assert canonical(trim_for_golden(run_cell(cell))) == canonical(
                blessed
            ), cell_id

    def test_cold_and_warm_runs_serialise_identically(self):
        """The route-once memos (message, encode, policy, export) are
        value-keyed: a cell run from cold caches and the same cell run
        straight after a *different* cell warmed them must not differ
        by a byte."""
        cell = TopoCell(family="withdraw", origins=2)
        other = TopoCell(family="churn", damping=True, mrai=5.0, origins=3)
        repro.bgp.reset_caches()
        cold = result_json({cell.cell_id: run_cell(cell)})
        run_cell(other)
        warm = result_json({cell.cell_id: run_cell(cell)})
        assert cold == warm
