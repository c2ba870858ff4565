"""The five ledger workloads.

Each workload turns ``--seed`` into cell specs, and offers two calls:
``run(scratch)`` executes one repetition through the same public
functions a CLI user reaches (construction included — that is the
``wall_s`` window), and ``setup()`` makes only the repetition's public
builder calls, timed separately for ``setup_s``.

Sizes are chosen so a repetition takes about 2 s on the 2-core
reference box: 114 driver runs share 3420 s, so a run — fresh
interpreter imports, a warm-up and about seven timed repetitions —
must end well inside 30 s. ``smoke`` sizes exist for the tests only.

``repro`` is imported inside the calls, never at module import, so the
worker decides when the tree loads (it times the import, and installs
probes before the first object is built).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

PLATFORMS = ("cisco", "ixp2400", "pentium3", "xeon")

#: The Table III calibration anchor (ROADMAP aim 2): pentium3 scenario 1.
ANCHOR_CELL = "s1-pentium3"
ANCHOR_TPS = 186.4
ANCHOR_TOLERANCE = 0.005


@dataclass
class Repetition:
    """What one ``run()`` produced."""

    #: Exact simulated operations (the workload's ``op``).
    ops: int
    #: ``{cell_id: JSON-ready result}`` — hashed into ``result_digest``.
    results: "dict[str, dict]"
    #: Cells attempted, and ``{cell_id: why}`` for the ones that failed.
    attempted: int
    failures: "dict[str, str]" = field(default_factory=dict)
    #: Figures read from the results themselves, not from probes.
    info: "dict[str, float | None]" = field(default_factory=dict)


def _completed(cell_id: str, result: dict, failures: "dict[str, str]") -> None:
    if not result.get("completed", False):
        failures[cell_id] = "completed=False (stalled or not quiescent)"


class PaperWorkload:
    """Table I scenarios on all four platforms: ``build_system`` +
    ``generate_table`` + ``run_scenario`` per cell, 16 cells."""

    op = "prefix transaction"

    def __init__(self, name: str, scenarios: "tuple[int, ...]", table_size: int, seed: int):
        self.name = name
        self.seed = seed
        self.table_size = table_size
        self.cells = [(s, p) for s in scenarios for p in PLATFORMS]

    def setup(self) -> None:
        from repro.systems import build_system
        from repro.workload import generate_table

        for _scenario, platform in self.cells:
            generate_table(self.table_size, self.seed)
            build_system(platform)

    def run(self, scratch: Path) -> Repetition:
        from repro.benchmark import run_scenario
        from repro.systems import build_system
        from repro.workload import generate_table

        rep = Repetition(ops=0, results={}, attempted=len(self.cells))
        for scenario, platform in self.cells:
            cell_id = f"s{scenario}-{platform}"
            try:
                table = generate_table(self.table_size, self.seed)
                outcome = run_scenario(
                    build_system(platform), scenario, table=table, seed=self.seed
                )
            except Exception as error:  # a failed cell must not hide the rest
                rep.failures[cell_id] = f"{type(error).__name__}: {error}"
                continue
            result = outcome.to_jsonable()
            rep.results[cell_id] = result
            rep.ops += outcome.transactions
            _completed(cell_id, result, rep.failures)
        rep.info["table3_err"] = self.table3_err(rep.results)
        return rep

    def table3_err(self, results: "dict[str, dict]") -> "float | None":
        """Mean |ln(simulated tps / paper tps)| over the cells — the
        accuracy figure that sits beside any simulator speed-up."""
        from repro.experiments.paperdata import PAPER_TABLE3

        errors = [
            abs(math.log(
                results[f"s{scenario}-{platform}"]["transactions_per_second"]
                / PAPER_TABLE3[platform][scenario]
            ))
            for scenario, platform in self.cells
            if f"s{scenario}-{platform}" in results
        ]
        return math.fsum(errors) / len(errors) if errors else None


class TopoWorkload:
    """One topology cell through ``run_topo_cell``.

    The cell spec is pinned, graph seed included, and ``--seed`` does
    not enter it. A seeded hierarchy changes the work, not only the
    inputs: across ten graph seeds the UPDATE count of these cells
    spreads 15-25 % (quartile distance over median) and the host cost
    per UPDATE another 6-8 %, because an arrival costs in proportion to
    the receiving AS's degree. Neither can be normalised away, and both
    are wider than the 10 % bound the metric must resolve. The paper and
    grid workloads, whose work is fixed by size, take the seed in full.
    """

    #: Every UPDATE a link delivered, set-up phase included: its host
    #: time is inside ``wall_s``, so it belongs in the op count too.
    op = "UPDATE delivered"

    def __init__(self, name: str, seed: int, graph_seed: int, **spec):
        self.name = name
        self.spec = dict(spec, seed=graph_seed)

    def cell(self):
        from repro.topo import TopoCell

        return TopoCell(**self.spec)

    def setup(self) -> None:
        from repro.topo import build_harness, pick_origins

        cell = self.cell()
        harness = build_harness(cell)
        pick_origins(harness.topology, cell.origins, cell.seed)

    def run(self, scratch: Path) -> Repetition:
        from repro.topo import run_topo_cell

        cell = self.cell()
        rep = Repetition(ops=0, results={}, attempted=1)
        try:
            result = run_topo_cell(cell)
        except Exception as error:
            rep.failures[cell.cell_id] = f"{type(error).__name__}: {error}"
            return rep
        rep.results[cell.cell_id] = result
        rep.ops = result["link_packets"]
        rep.info = {
            "mrai_deferrals": result["mrai_deferrals"],
            "damping_suppressed": result["damping_suppressed"],
            "link_packets": result["link_packets"],
        }
        _completed(cell.cell_id, result, rep.failures)
        return rep


class GridWorkload:
    """Many small cells through ``run_grid``: a cold pass into an empty
    cache, then a warm pass that must be all hits."""

    op = "cell executed"

    def __init__(self, name: str, table_size: int, seed: int):
        self.name = name
        self.seed = seed
        self.table_size = table_size

    def cells(self) -> list:
        from repro.grid import enumerate_grid
        from repro.topo import default_topo_grid

        return (
            enumerate_grid(
                seeds=(self.seed, self.seed + 1), table_sizes=(self.table_size,)
            )
            + default_topo_grid()
        )

    def setup(self) -> None:
        from repro.grid import source_fingerprint

        self.cells()
        source_fingerprint()

    def run(self, scratch: Path, workers: int = 1) -> Repetition:
        from repro.grid import GridCache, run_grid

        cells = self.cells()
        rep = Repetition(ops=0, results={}, attempted=len(cells))
        try:
            cache = GridCache(scratch / "cache")
            cold = run_grid(cells, workers=workers, cache=cache)
            warm = run_grid(cells, workers=workers, cache=cache)
        except Exception as error:
            # The pool path aborts the whole grid on one raising cell.
            why = f"{type(error).__name__}: {error}"
            rep.failures = {cell.cell_id: why for cell in cells}
            return rep
        rep.results = cold.results
        rep.ops = cold.executed
        rep.info = {
            "cache_hits": cold.hits + warm.hits,
            "cache_lookups": cold.cells + warm.cells,
        }
        for cell in cells:
            result = cold.results.get(cell.cell_id)
            if result is None:
                rep.failures[cell.cell_id] = "no result"
            elif warm.results.get(cell.cell_id) != result:
                rep.failures[cell.cell_id] = "warm (cached) result differs from cold"
            else:
                _completed(cell.cell_id, result, rep.failures)
        if warm.hits != len(cells):
            rep.failures["warm-pass"] = f"{warm.hits}/{len(cells)} cache hits"
        return rep


_TOPO = dict(tier1=6, tier2=30, stubs=500, graph_seed=42)
_TOPO_SMOKE = dict(tier1=2, tier2=5, stubs=18, graph_seed=42)

#: name -> (factory, full-size arguments, smoke arguments). The reasons
#: for each workload are in README.md and BENCHMARK.json.
WORKLOADS = {
    "paper_small_pkt": (
        PaperWorkload,
        dict(scenarios=(1, 3, 5, 7), table_size=400),
        dict(scenarios=(1, 3, 5, 7), table_size=40),
    ),
    "paper_large_pkt": (
        PaperWorkload,
        dict(scenarios=(2, 4, 6, 8), table_size=2000),
        dict(scenarios=(2, 4, 6, 8), table_size=500),
    ),
    "topo_withdraw": (
        TopoWorkload,
        dict(family="withdraw", origins=8, **_TOPO),
        dict(family="withdraw", origins=2, **_TOPO_SMOKE),
    ),
    "topo_churn_damped": (
        TopoWorkload,
        dict(family="churn", origins=3, flaps=4, mrai=5.0,
             damping=True, **_TOPO),
        dict(family="churn", origins=2, flaps=4, mrai=5.0,
             damping=True, **_TOPO_SMOKE),
    ),
    "grid_fanout": (
        GridWorkload,
        dict(table_size=150),
        dict(table_size=20),
    ),
}


def make(name: str, seed: int, smoke: bool = False):
    factory, full, small = WORKLOADS[name]
    return factory(name, seed=seed, **(small if smoke else full))
