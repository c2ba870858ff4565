"""Correctness tooling that guards the benchmark's reproducibility.

Two prongs (see docs/ANALYSIS.md):

* the **determinism linter** (:mod:`repro.analysis.linter` plus the rule
  registry in :mod:`repro.analysis.rules`) — static AST checks tuned to
  this codebase: no wall-clock reads, no unseeded randomness, no
  unordered-set iteration on ordering-sensitive paths, no mutable
  default arguments, ``math.fsum`` for float aggregation,
  ``to_jsonable`` completeness for dataclasses crossing the grid
  process boundary, and no ``print()`` in library modules;
* the **simulation sanitizer** (:mod:`repro.analysis.sanitizer`) — a
  checked mode that observes a live :class:`repro.sim.engine.Simulator`
  and asserts runtime invariants every event (monotonic clock, stable
  tie-breaking, heap integrity, prefix conservation) plus RIB/FIB
  agreement after quiescence.

Exposed on the command line as ``bgpbench lint`` and ``bgpbench check
--sanitize``.
"""

from repro.analysis.linter import (
    LintReport,
    lint_paths,
    noqa_map,
    render_json,
    render_text,
)
from repro.analysis.rules import Finding, all_rules, get_rule
from repro.analysis.sanitizer import Sanitizer, SanitizerError, SanitizerStats

__all__ = [
    "Finding",
    "LintReport",
    "Sanitizer",
    "SanitizerError",
    "SanitizerStats",
    "all_rules",
    "get_rule",
    "lint_paths",
    "noqa_map",
    "render_json",
    "render_text",
]
