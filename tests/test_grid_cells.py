"""GridCell specs: identity, canonical hashing, enumeration, execution."""

import json
import pickle

import pytest

from repro.benchmark import run_scenario
from repro.grid import GridCell, enumerate_grid, result_json, run_cell
from repro.grid.cache import cell_key, spec_json
from repro.systems import build_system


class TestCellIdentity:
    def test_cell_id_names_every_coordinate(self):
        cell = GridCell(scenario=3, platform="xeon", seed=9, table_size=250)
        assert cell.cell_id == "s3-xeon-seed9-n250"

    def test_spec_roundtrips(self):
        cell = GridCell(5, "cisco", 1, 100)
        assert GridCell.from_spec(cell.spec()) == cell
        assert GridCell.from_spec(json.loads(spec_json(cell))) == cell

    def test_spec_json_is_canonical(self):
        cell = GridCell(1, "pentium3", 42, 150)
        assert spec_json(cell) == json.dumps(
            cell.spec(), sort_keys=True, separators=(",", ":")
        )
        # No whitespace so the hashed bytes never depend on formatting.
        assert " " not in spec_json(cell)

    def test_cells_are_hashable_and_picklable(self):
        cell = GridCell(2, "ixp2400", 7, 80)
        assert len({cell, GridCell(2, "ixp2400", 7, 80)}) == 1
        assert pickle.loads(pickle.dumps(cell)) == cell

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenario": 0},
            {"scenario": 9},
            {"platform": "sparc"},
            {"table_size": 0},
        ],
    )
    def test_invalid_coordinates_rejected(self, kwargs):
        spec = {"scenario": 1, "platform": "xeon", "seed": 42, "table_size": 100}
        spec.update(kwargs)
        with pytest.raises((ValueError, KeyError)):
            GridCell(**spec)


class TestCellKeys:
    def test_key_depends_on_spec(self):
        fingerprint = "f" * 64
        a = cell_key(GridCell(1, "xeon", 42, 100), fingerprint)
        b = cell_key(GridCell(1, "xeon", 43, 100), fingerprint)
        assert a != b

    def test_key_depends_on_fingerprint(self):
        cell = GridCell(1, "xeon", 42, 100)
        assert cell_key(cell, "aaa") != cell_key(cell, "bbb")

    def test_key_is_stable(self):
        cell = GridCell(1, "xeon", 42, 100)
        assert cell_key(cell, "abc") == cell_key(cell, "abc")
        assert len(cell_key(cell, "abc")) == 64


class TestEnumeration:
    def test_full_grid_size(self):
        cells = enumerate_grid(seeds=(1, 2), table_sizes=(100, 200))
        assert len(cells) == 8 * 4 * 2 * 2

    def test_order_is_deterministic_and_sorted(self):
        cells = enumerate_grid(
            scenarios=[2, 1], platforms=["xeon", "cisco"], seeds=[5, 3],
            table_sizes=[200, 100],
        )
        assert cells == sorted(cells)
        assert cells == enumerate_grid(
            scenarios=[1, 2], platforms=["cisco", "xeon"], seeds=[3, 5],
            table_sizes=[100, 200],
        )

    def test_duplicates_collapse(self):
        cells = enumerate_grid(
            scenarios=[1, 1], platforms=["xeon"], seeds=[3, 3], table_sizes=[100]
        )
        assert len(cells) == 1


class TestRunCell:
    def test_matches_direct_scenario_run(self):
        cell = GridCell(1, "pentium3", 11, 120)
        result = run_cell(cell)
        direct = run_scenario(
            build_system("pentium3"), 1, table_size=120, seed=11
        )
        assert result["transactions_per_second"] == direct.transactions_per_second
        assert result["transactions"] == direct.transactions
        assert result["fib_size_after"] == direct.fib_size_after
        assert result["cell"] == cell.spec()
        assert result["completed"] is True

    def test_result_is_json_ready(self):
        result = run_cell(GridCell(5, "pentium3", 2, 100))
        assert json.loads(json.dumps(result)) == result

    def test_result_json_is_canonical(self):
        results = {"b": {"x": 1}, "a": {"y": 2}}
        text = result_json(results)
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == results
