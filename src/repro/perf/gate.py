"""The perf budget gate: ``bgpbench perf --check``.

Wall-clock numbers are machine-dependent, so the gate checks
**floors** — ``min_ops_per_s`` per workload, stored in
``benchmarks/perf/budgets.json``. Blessed far below the measured rate
(see :func:`bless`) and further slackened by the ``--tolerance``
factor, they catch order-of-magnitude regressions (an accidentally
quadratic loop, a dropped cache) without flaking on CI noise.

Budget file schema::

    {
      "profile": "quick" | "full",
      "floors":  {"<workload>": {"min_ops_per_s": <float>}, ...}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Violation",
    "load_budgets",
    "check",
    "bless",
    "DEFAULT_TOLERANCE",
]

#: Default slack factor applied to floors (a floor f passes while
#: measured >= f * (1 - tolerance)).
DEFAULT_TOLERANCE = 0.5

#: Headroom used by :func:`bless`: floors are pinned at measured/4, so
#: only a ~4x (before tolerance) slowdown trips the gate.
BLESS_HEADROOM = 4.0


@dataclass(frozen=True, slots=True)
class Violation:
    """One failed budget constraint, human-renderable."""

    kind: str  # "floor" | "missing"
    workload: str
    detail: str


def load_budgets(path: "str | Path") -> dict:
    data = json.loads(Path(path).read_text())
    if "floors" not in data:
        raise ValueError(f"{path}: not a perf budget file")
    return data


def check(
    results: "dict[str, dict[str, object]]",
    budgets: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> "list[Violation]":
    """Evaluate *results* (a BENCH_*.json payload) against *budgets*."""
    violations: list[Violation] = []
    slack = 1.0 - tolerance
    if slack < 0:
        slack = 0.0

    for workload, floor in sorted(budgets["floors"].items()):
        entry = results.get(workload)
        if entry is None:
            violations.append(
                Violation("missing", workload, "workload absent from results")
            )
            continue
        measured = float(entry["ops_per_s"])  # type: ignore[arg-type]
        required = float(floor["min_ops_per_s"]) * slack
        if measured < required:
            violations.append(
                Violation(
                    "floor",
                    workload,
                    f"{measured:.0f} ops/s < required {required:.0f}"
                    f" (floor {floor['min_ops_per_s']:.0f} x slack {slack:.2f})",
                )
            )
    return violations


def bless(
    results: "dict[str, dict[str, object]]",
    profile: str,
    headroom: float = BLESS_HEADROOM,
) -> dict:
    """Build a budget payload from measured *results*: every floor is
    measured/headroom."""
    floors = {
        workload: {"min_ops_per_s": round(float(entry["ops_per_s"]) / headroom, 2)}  # type: ignore[arg-type]
        for workload, entry in sorted(results.items())
    }
    return {"profile": profile, "floors": floors}
