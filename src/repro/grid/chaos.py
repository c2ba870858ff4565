"""Deterministic chaos injection for the grid supervisor.

The resilience layer is only trustworthy if its failure paths are
exercised on every CI run, so worker faults are injectable: a
:class:`ChaosPlan` maps cell ids to :class:`ChaosFault` specs and rides
into the worker with the cell. Three fault kinds cover the taxonomy:

* ``crash`` — the worker hard-exits (``os._exit``) without reporting,
  modelling a segfault or OOM kill (outcome ``crashed``);
* ``hang`` — the worker sleeps past any per-cell timeout, modelling a
  livelock the watchdog cannot see (outcome ``timeout``);
* ``flaky`` — the worker raises :class:`ChaosError`, modelling a
  transient failure (outcome ``failed``).

Every fault takes ``times``: the number of leading attempts it affects
(``None`` = every attempt). ``flaky`` with ``times=N`` is the
fail-N-times-then-succeed cell the retry tests pivot on. Faults are a
pure function of ``(cell_id, attempt)`` — no ambient randomness — so a
chaos run is as reproducible as a healthy one.

Plans serialise to plain JSON (``{"<cell_id>": {"kind": ...}}``) for
the ``bgpbench grid --chaos plan.json`` smoke test CI runs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

#: Exit status a ``crash`` fault dies with (visible in diagnostics).
CRASH_EXIT_CODE = 13

FAULT_KINDS = ("crash", "hang", "flaky")


class ChaosError(RuntimeError):
    """The injected transient failure a ``flaky`` fault raises."""


class ChaosPlanError(ValueError):
    """A chaos plan, or one fault in it, that cannot be loaded."""


@dataclass(frozen=True, slots=True)
class ChaosFault:
    """One cell's injected misbehaviour."""

    kind: str
    #: Attempts (0-based, leading) the fault applies to; None = all.
    times: "int | None" = None
    exit_code: int = CRASH_EXIT_CODE
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ChaosPlanError(f"unknown chaos kind {self.kind!r}; valid: {FAULT_KINDS}")
        if self.times is not None and self.times < 1:
            raise ChaosPlanError(f"times must be >= 1 (or None for always): {self.times}")
        if self.hang_seconds <= 0:
            raise ChaosPlanError(f"hang_seconds must be positive: {self.hang_seconds}")

    def applies(self, attempt: int) -> bool:
        return self.times is None or attempt < self.times

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "kind": self.kind,
            "times": self.times,
            "exit_code": self.exit_code,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "ChaosFault":
        if not isinstance(spec, Mapping):
            raise ChaosPlanError(f"fault must be an object, got {type(spec).__name__}")
        unknown = set(spec) - {"kind", "times", "exit_code", "hang_seconds"}
        if unknown:
            raise ChaosPlanError(f"unknown chaos fault keys: {sorted(unknown)}")
        if "kind" not in spec:
            raise ChaosPlanError("missing key 'kind'")
        fields: "dict[str, object]" = {"kind": str(spec["kind"])}
        for key, convert in (("times", int), ("exit_code", int), ("hang_seconds", float)):
            if spec.get(key) is None:
                continue
            try:
                fields[key] = convert(spec[key])  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ChaosPlanError(f"key {key!r}: not a number: {spec[key]!r}") from None
        return cls(**fields)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """Cell-id → fault mapping; pickles into workers, loads from JSON."""

    faults: "dict[str, ChaosFault]"

    def get(self, cell_id: str) -> "ChaosFault | None":
        return self.faults.get(cell_id)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def to_jsonable(self) -> "dict[str, object]":
        return {
            cell_id: fault.to_jsonable()
            for cell_id, fault in sorted(self.faults.items())
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Mapping[str, object]]) -> "ChaosPlan":
        if not isinstance(spec, Mapping):
            raise ChaosPlanError(
                f"plan must be an object mapping cell ids to faults, "
                f"got {type(spec).__name__}"
            )
        faults = {}
        for cell_id, fault_spec in spec.items():
            try:
                faults[str(cell_id)] = ChaosFault.from_spec(fault_spec)
            except ChaosPlanError as error:
                raise ChaosPlanError(f"cell {cell_id!r}: {error}") from None
        return cls(faults)

    @classmethod
    def from_file(cls, path: "Path | str") -> "ChaosPlan":
        """Load a JSON plan; anything wrong with the file or its shape
        is one :class:`ChaosPlanError` naming *path*."""
        try:
            return cls.from_spec(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as error:
            raise ChaosPlanError(f"chaos plan {path}: {error}") from None


def apply_chaos(fault: "ChaosFault | None", attempt: int) -> None:
    """Inject *fault* into the current worker process, if it applies.

    Called at the top of the supervised worker entry point, before the
    cell executes — a fault either prevents the result entirely (crash,
    hang) or raises before any simulation state exists (flaky), so a
    surviving attempt is indistinguishable from an uninjected one.
    """
    if fault is None or not fault.applies(attempt):
        return
    if fault.kind == "crash":
        os._exit(fault.exit_code)
    if fault.kind == "hang":
        time.sleep(fault.hang_seconds)
        return
    raise ChaosError(
        f"injected flaky fault (attempt {attempt}"
        f"{'' if fault.times is None else f' of {fault.times} failing'})"
    )
