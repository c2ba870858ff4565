"""The boundary contract: every public dataclass in a module whose
results cross the grid or shard process boundary (or land in the cache,
the golden files or ``bgpbench --output-dir``) defines ``to_jsonable()``,
and its output survives
``json.dumps``/``loads`` unchanged — no tuples, dataclasses, or other
shapes JSON would silently rewrite."""

import dataclasses
import importlib
import json

import pytest

from repro.benchmark import run_scenario
from repro.benchmark.harness import (
    MultiPeerResult,
    PhaseTrace,
    StallDiagnostics,
    run_multipeer_startup,
)
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.table3 import run_table3
from repro.grid.cells import GridCell
from repro.grid.executor import GridReport, run_grid
from repro.systems import build_system


#: The modules whose dataclasses cross a process boundary or are
#: written as JSON.
BOUNDARY_MODULES = (
    "repro.experiments.table3",
    "repro.experiments.fig3",
    "repro.experiments.fig4",
    "repro.experiments.fig5",
    "repro.experiments.fig6",
    "repro.benchmark.harness",
    "repro.grid.cells",
    "repro.grid.executor",
    "repro.grid.outcomes",
    "repro.topo.families",
    "repro.parallel.partition",
    "repro.parallel.channel",
)


def roundtrips(payload) -> bool:
    return json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("name", BOUNDARY_MODULES)
def test_every_boundary_dataclass_defines_to_jsonable(name):
    # Defined on the class itself: an inherited to_jsonable() would drop
    # the fields a subclass adds.
    module = importlib.import_module(name)
    classes = [
        value for attribute, value in vars(module).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
        and value.__module__ == name and not attribute.startswith("_")
    ]
    assert classes
    assert [cls.__name__ for cls in classes if "to_jsonable" not in vars(cls)] == []


class TestHarnessResults:
    def test_scenario_result_roundtrips(self):
        result = run_scenario(build_system("pentium3"), 5, table_size=100, seed=5)
        assert roundtrips(result.to_jsonable())

    def test_phase_trace_roundtrips_with_stall(self):
        stall = StallDiagnostics(
            reason="livelock",
            virtual_time=3.5,
            inflight=4,
            packets_sent=10,
            packets_total=20,
            packets_completed=6,
            events_fired=123,
        )
        trace = PhaseTrace(3, 1.0, 3.5, 6, completed=False, stall=stall)
        payload = trace.to_jsonable()
        assert roundtrips(payload)
        assert payload["stall"]["reason"] == "livelock"

    def test_stall_diagnostics_roundtrip_preserves_every_field(self):
        stall = StallDiagnostics("deadlock", 1.0, 2, 3, 4, 5, 6)
        payload = stall.to_jsonable()
        assert roundtrips(payload)
        assert set(payload) == {
            "reason", "virtual_time", "inflight", "packets_sent",
            "packets_total", "packets_completed", "events_fired",
        }

    def test_multipeer_result_roundtrips(self):
        result = run_multipeer_startup(
            build_system("pentium3"), peer_count=2, table_size=60, seed=5
        )
        payload = result.to_jsonable()
        assert roundtrips(payload)
        assert payload["peer_count"] == 2
        assert payload["transactions_per_second"] == result.transactions_per_second


class TestGridResults:
    def test_grid_cell_roundtrips_to_its_spec(self):
        cell = GridCell(5, "xeon", 42, 150)
        payload = cell.to_jsonable()
        assert roundtrips(payload)
        assert payload == cell.spec()
        assert GridCell.from_spec(json.loads(json.dumps(payload))) == cell

    def test_grid_report_roundtrips(self):
        cells = [GridCell(1, "pentium3", 5, 80), GridCell(5, "pentium3", 5, 80)]
        report = run_grid(cells, workers=1)
        payload = report.to_jsonable()
        assert roundtrips(payload)
        assert payload["executed"] == 2
        assert list(payload["results"]) == [cell.cell_id for cell in cells]

    def test_empty_grid_report_roundtrips(self):
        payload = GridReport(workers=3).to_jsonable()
        assert roundtrips(payload)
        assert payload == {
            "workers": 3,
            "hits": 0,
            "executed": 0,
            "timeouts": 0,
            "worker_crashes": 0,
            "results": {},
            "failures": {},
            "uncached": {},
        }


class TestExperimentResults:
    """What ``bgpbench <experiment> --output-dir`` writes."""

    def test_table3_result_roundtrips(self):
        payload = run_table3(table_size=60).to_jsonable()
        assert roundtrips(payload)
        assert payload["experiment"] == "table3"

    def test_fig3_result_roundtrips(self):
        payload = run_fig3(table_size=60).to_jsonable()
        assert roundtrips(payload)
        assert payload["experiment"] == "fig3"

    def test_fig4_result_roundtrips(self):
        payload = run_fig4(table_size=60).to_jsonable()
        assert roundtrips(payload)
        assert payload["experiment"] == "fig4"

    def test_fig5_result_roundtrips(self):
        result = run_fig5(table_size=60, points=2, scenarios=(1, 2),
                          platforms=("pentium3", "cisco"))
        payload = result.to_jsonable()
        assert roundtrips(payload)
        assert payload["experiment"] == "fig5"

    def test_fig6_result_roundtrips(self):
        payload = run_fig6(table_size=100).to_jsonable()
        assert roundtrips(payload)
        assert payload["experiment"] == "fig6"
