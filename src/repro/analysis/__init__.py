"""The simulation sanitizer that guards the benchmark's reproducibility.

:mod:`repro.analysis.sanitizer` is a checked mode that observes a live
:class:`repro.sim.engine.Simulator` and asserts runtime invariants every
event (monotonic clock, stable tie-breaking, heap integrity, prefix
conservation) plus RIB/FIB agreement after quiescence (see
docs/ANALYSIS.md).

Exposed on the command line as ``--sanitize`` on ``bgpbench scenario``,
``grid``, ``regress`` and ``topo``.
"""

from repro.analysis.sanitizer import Sanitizer, SanitizerError, SanitizerStats

__all__ = [
    "Sanitizer",
    "SanitizerError",
    "SanitizerStats",
]
