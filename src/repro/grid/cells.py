"""Grid cells: the self-describing unit of the sharded experiment grid.

A :class:`GridCell` names one point of the (scenario × platform × seed ×
table-size) experiment grid. A cell is *self-describing*: everything a
worker needs to reproduce the measurement — including the workload PRNG
seed — is in the spec, so any process that receives a cell re-seeds
deterministically and produces results bit-identical to a serial run.

A cell's spec, hashed together with a fingerprint of the ``repro``
source tree, is the content address under which its result is cached
(see :mod:`repro.grid.cache`).

:class:`Cell` is the protocol executor, supervisor, cache and golden
gate are written against; :class:`GridCell` here and
:class:`repro.topo.families.TopoCell` in the layer below satisfy it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

from repro.analysis.sanitizer import Sanitizer, SanitizerError
from repro.benchmark import run_scenario
from repro.benchmark.harness import StallError
from repro.benchmark.scenarios import SCENARIOS
from repro.systems import build_system
from repro.systems.platforms import PLATFORMS

#: The metric fields every cell result carries (used by the regression
#: gate; ``transactions``/``fib_size_after``/``completed`` compare
#: exactly, the float fields within a relative tolerance).
EXACT_METRICS = ("transactions", "fib_size_after", "completed")
TOLERANT_METRICS = ("duration", "transactions_per_second")


class Cell(Protocol):
    """What the grid needs of a cell: an id for result files, a spec
    that round-trips through :meth:`from_spec`, and :meth:`run`."""

    @property
    def cell_id(self) -> str: ...

    def spec(self) -> "dict[str, object]": ...

    def to_jsonable(self) -> "dict[str, object]": ...

    @classmethod
    def from_spec(cls, spec: "Mapping[str, object]") -> "Cell": ...

    def run(
        self, sanitize: bool = False, telemetry_dir: "str | None" = None
    ) -> "dict[str, object]": ...


@dataclass(frozen=True, slots=True, order=True)
class GridCell:
    """One (scenario, platform, seed, table_size) grid point."""

    scenario: int
    platform: str
    seed: int
    table_size: int

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"no scenario {self.scenario}; valid: 1-8")
        if self.platform not in PLATFORMS:
            raise ValueError(
                f"unknown platform {self.platform!r}; choose from {sorted(PLATFORMS)}"
            )
        if self.table_size < 1:
            raise ValueError(f"table_size must be positive: {self.table_size}")

    @property
    def cell_id(self) -> str:
        """Human-readable identifier, the key used in result files."""
        return f"s{self.scenario}-{self.platform}-seed{self.seed}-n{self.table_size}"

    def spec(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "platform": self.platform,
            "seed": self.seed,
            "table_size": self.table_size,
        }

    def to_jsonable(self) -> dict[str, object]:
        """Alias of :meth:`spec` — the cell *is* its spec."""
        return self.spec()

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "GridCell":
        return cls(
            scenario=int(spec["scenario"]),  # type: ignore[arg-type]
            platform=str(spec["platform"]),
            seed=int(spec["seed"]),  # type: ignore[arg-type]
            table_size=int(spec["table_size"]),  # type: ignore[arg-type]
        )

    def run(
        self, sanitize: bool = False, telemetry_dir: "str | None" = None
    ) -> dict[str, object]:
        """Build a fresh router, re-seed the workload from the spec and
        summarise the :class:`~repro.benchmark.harness.ScenarioResult`
        as plain dicts."""
        router = build_system(self.platform)
        sanitizer = None
        telemetry = None
        if sanitize:
            sanitizer = Sanitizer().attach(router)
        if telemetry_dir is not None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry().attach(router)
        try:
            outcome = run_scenario(
                router,
                self.scenario,
                table_size=self.table_size,
                seed=self.seed,
            )
            if sanitizer is not None:
                sanitizer.check_quiescent()
        finally:
            if telemetry is not None:
                telemetry.detach()
            if sanitizer is not None:
                sanitizer.detach()
        if telemetry is not None:
            from pathlib import Path

            from repro.telemetry import write_trace

            write_trace(telemetry.tracer, Path(telemetry_dir) / f"{self.cell_id}.trace.json")
        summary = outcome.to_jsonable()
        summary["cell"] = self.spec()
        return summary


def enumerate_grid(
    scenarios: "Iterable[int] | None" = None,
    platforms: "Iterable[str] | None" = None,
    seeds: Iterable[int] = (42,),
    table_sizes: Iterable[int] = (400,),
) -> list[GridCell]:
    """Enumerate the full cartesian grid in deterministic order.

    Duplicate coordinates are collapsed; the order is sorted by
    (scenario, platform, seed, table_size) so a grid enumeration is
    stable regardless of the argument order.
    """
    scenarios = sorted(set(scenarios)) if scenarios is not None else sorted(SCENARIOS)
    platforms = sorted(set(platforms)) if platforms is not None else sorted(PLATFORMS)
    cells = [
        GridCell(scenario, platform, seed, table_size)
        for scenario in scenarios
        for platform in platforms
        for seed in sorted(set(seeds))
        for table_size in sorted(set(table_sizes))
    ]
    return sorted(cells)


def run_cell(
    cell: Cell, sanitize: bool = False, telemetry_dir: "str | None" = None
) -> dict[str, object]:
    """Execute one cell from scratch and return its JSON-ready result:
    the metrics at the top level plus the cell spec under ``"cell"`` —
    deterministic given the spec, so in-process and worker runs agree
    byte for byte.

    With ``sanitize=True`` the run executes in checked mode: a
    sanitizer observes every event and the quiescent invariants are
    asserted after the run (violations raise
    :class:`~repro.analysis.sanitizer.SanitizerError` instead of
    returning a result). With *telemetry_dir* set, a scenario cell's run
    is traced and ``<cell_id>.trace.json`` is written there; a topology
    cell writes nothing. Both modes observe only, so the result is
    byte-identical either way.
    """
    try:
        return cell.run(sanitize=sanitize, telemetry_dir=telemetry_dir)
    except (StallError, SanitizerError) as error:
        # Per-cell diagnostics: the error names the cell it came from, so
        # a supervisor (or a human reading a traceback) need not
        # reverse-engineer which of a thousand cells hung.
        error.cell_id = cell.cell_id
        error.args = (f"[cell {cell.cell_id}] {error.args[0]}",) + error.args[1:]
        raise


def result_json(results: Mapping[str, Mapping[str, object]]) -> str:
    """Canonical JSON for a ``{cell_id: result}`` mapping — the byte
    representation the determinism tests and the regression gate diff."""
    return json.dumps(results, sort_keys=True, indent=2)
