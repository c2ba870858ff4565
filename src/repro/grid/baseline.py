"""Golden-baseline regression gate for the experiment grid.

A golden file (``benchmarks/golden/*.json``) commits the expected
result of a specific grid — its cell coordinates, a relative tolerance
for the float metrics, and per-cell metric values. ``compare`` diffs a
fresh run against it three ways:

* **drift** — a metric moved: exact-metric mismatch, or a float metric
  outside the relative tolerance;
* **missing** — a golden cell absent from the fresh results (the grid
  shrank, or a cell crashed);
* **extra** — fresh cells the golden file does not cover
  (informational only — bless to adopt them).

``bless`` rewrites the golden file from fresh results — the one
sanctioned way to move the baseline after an intentional change.

A golden file's ``grid`` entry names its cells as the axes of a
cartesian scenario grid or as ``{"kind": "topo", "cells": [...]}``;
:func:`grid_cells` is the one place that tells them apart. A file that
cannot be used raises :class:`GoldenError` naming it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.grid.cells import EXACT_METRICS, TOLERANT_METRICS, Cell, enumerate_grid
from repro.topo.families import TopoCell

#: Default relative tolerance for ``TOLERANT_METRICS``.
DEFAULT_TOLERANCE = 0.05

#: Bumped when the golden layout changes.
GOLDEN_FORMAT = 1

#: Metric fields persisted per cell in a golden file (phases and series
#: are deliberately dropped — goldens pin the headline numbers).
GOLDEN_METRICS = EXACT_METRICS + TOLERANT_METRICS


class GoldenError(ValueError):
    """A golden file, or the grid it names, that cannot be used."""


@dataclass(slots=True)
class MetricDrift:
    """One metric of one cell outside its allowed envelope."""

    cell_id: str
    metric: str
    golden: object
    fresh: object
    relative_error: float

    def describe(self) -> str:
        if self.metric in EXACT_METRICS:
            return (
                f"{self.cell_id}: {self.metric} changed "
                f"{self.golden!r} -> {self.fresh!r} (exact-match metric)"
            )
        return (
            f"{self.cell_id}: {self.metric} drifted "
            f"{self.golden} -> {self.fresh} "
            f"({100 * self.relative_error:+.2f}%, tolerance ±{{tol}}%)"
        )


@dataclass(slots=True)
class RegressionReport:
    """Everything the gate found; ``ok`` decides the exit code."""

    tolerance: float
    matching: list[str] = field(default_factory=list)
    drifted: list[MetricDrift] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.drifted and not self.missing

    def format(self) -> str:
        total = len(self.matching) + len(self.missing)
        total += len({d.cell_id for d in self.drifted})
        lines = [
            f"regression gate: {len(self.matching)}/{total} golden cells match "
            f"(tolerance ±{100 * self.tolerance:g}% on "
            f"{', '.join(TOLERANT_METRICS)})"
        ]
        for drift in self.drifted:
            text = drift.describe().replace("{tol}", f"{100 * self.tolerance:g}")
            lines.append(f"  DRIFT   {text}")
        for cell_id in self.missing:
            lines.append(f"  MISSING {cell_id}: in golden baseline, not in fresh results")
        for cell_id in self.extra:
            lines.append(f"  extra   {cell_id}: not in golden baseline (bless to adopt)")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL — baseline drift"))
        return "\n".join(lines)


def _relative_error(golden: float, fresh: float) -> float:
    if golden == fresh:
        return 0.0
    denominator = abs(golden) if golden else max(abs(fresh), 1e-12)
    return (fresh - golden) / denominator


def compare(
    golden_cells: Mapping[str, Mapping[str, object]],
    fresh_cells: Mapping[str, Mapping[str, object]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> RegressionReport:
    """Diff fresh ``{cell_id: result}`` results against golden ones."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0: {tolerance}")
    report = RegressionReport(tolerance=tolerance)
    for cell_id in sorted(golden_cells):
        if cell_id not in fresh_cells:
            report.missing.append(cell_id)
            continue
        golden, fresh = golden_cells[cell_id], fresh_cells[cell_id]
        clean = True
        for metric in EXACT_METRICS:
            if golden[metric] != fresh.get(metric):
                report.drifted.append(
                    MetricDrift(cell_id, metric, golden[metric], fresh.get(metric), 0.0)
                )
                clean = False
        for metric in TOLERANT_METRICS:
            error = _relative_error(float(golden[metric]), float(fresh.get(metric, 0.0)))  # type: ignore[arg-type]
            if abs(error) > tolerance:
                report.drifted.append(
                    MetricDrift(cell_id, metric, golden[metric], fresh.get(metric), error)
                )
                clean = False
        if clean:
            report.matching.append(cell_id)
    report.extra = sorted(set(fresh_cells) - set(golden_cells))
    return report


def load_golden(path: "Path | str") -> dict:
    """Read a golden file, validating its format marker and that the
    keys ``regress`` reads are there."""
    try:
        golden = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise GoldenError(f"{path}: {error}") from None
    if not isinstance(golden, dict):
        raise GoldenError(
            f"{path}: golden file must be an object, got {type(golden).__name__}"
        )
    if golden.get("format") != GOLDEN_FORMAT:
        raise GoldenError(
            f"{path}: unsupported golden format {golden.get('format')!r} "
            f"(expected {GOLDEN_FORMAT})"
        )
    for key, kind in (("grid", dict), ("cells", dict), ("tolerance", (int, float))):
        if not isinstance(golden.get(key), kind):
            raise GoldenError(f"{path}: key {key!r} is missing or of the wrong type")
    for cell_id, entry in golden["cells"].items():
        for metric in GOLDEN_METRICS:
            if not isinstance(entry, dict) or metric not in entry:
                raise GoldenError(f"{path}: cell {cell_id!r} is missing key {metric!r}")
    return golden


def topo_grid_spec(cells: "Iterable[Cell]") -> "dict[str, object]":
    """The ``grid`` entry pinning an explicit list of topology cells."""
    return {"kind": "topo", "cells": [cell.spec() for cell in cells]}


def grid_cells(grid: Mapping, source: object = "grid") -> "list[Cell]":
    """The cells a golden ``grid`` entry names, in run order. *source*
    (the golden file) prefixes the :class:`GoldenError` raised for a
    missing key or a value no cell accepts; a bad topology cell is
    named by its index, ``cells[i]``."""
    where = f"{source}: key 'grid'"
    try:
        if grid.get("kind") == "topo":
            cells = []
            for index, spec in enumerate(grid["cells"]):
                where = f"{source}: key 'grid': cells[{index}]"
                cells.append(TopoCell.from_spec(spec))
            return cells
        axes = ("scenarios", "platforms", "seeds", "table_sizes")
        return enumerate_grid(**{axis: grid[axis] for axis in axes})
    except KeyError as error:
        raise GoldenError(f"{where}: missing key {error}") from None
    except (AttributeError, TypeError, ValueError) as error:
        raise GoldenError(f"{where}: {error}") from None


def trim_for_golden(result: Mapping[str, object]) -> dict[str, object]:
    """The subset of a cell result a golden file pins."""
    trimmed: dict[str, object] = {"cell": result["cell"]}
    for metric in GOLDEN_METRICS:
        trimmed[metric] = result[metric]
    return trimmed


def bless(
    path: "Path | str",
    fresh_cells: Mapping[str, Mapping[str, object]],
    grid: Mapping[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Path:
    """Write (or rewrite) the golden file at *path* from fresh results.

    *grid* records the enumeration parameters (scenarios, platforms,
    seeds, table_sizes) so ``bgpbench regress`` can re-run exactly the
    committed grid without extra flags.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    golden = {
        "format": GOLDEN_FORMAT,
        "tolerance": tolerance,
        "grid": dict(grid),
        "cells": {
            cell_id: trim_for_golden(result)
            for cell_id, result in sorted(fresh_cells.items())
        },
    }
    path.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
    return path
