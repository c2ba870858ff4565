"""Deterministic observability: one span trace, plus the CPU profile.

The telemetry subsystem makes every run inspectable — per-phase timing,
per-packet latency, per-UPDATE decisions and FIB operations — without
changing a single result byte. Each fact is recorded once, as a span:

* :mod:`repro.telemetry.spans` — a :class:`Tracer` recording the
  phase → packet → UPDATE → decision/FIB span hierarchy;
* :mod:`repro.telemetry.probe` — the :class:`Telemetry` facade that
  attaches all hooks to a router in one call;
* :mod:`repro.telemetry.profile` — the top-style per-task virtual-CPU
  table;
* :mod:`repro.telemetry.export` — the Chrome trace-event artifact (plus
  the parser that round-trips it);
* :mod:`repro.telemetry.validate` — trace schema validation (the CI
  smoke job's checker).

The **observe-only guarantee**: an instrumented run is byte-identical
to a plain run. The golden regression gate pins this
(``bgpbench regress --telemetry``); see docs/TELEMETRY.md.
"""

from repro.telemetry.export import parse_chrome_trace, spans_to_chrome_trace, write_trace
from repro.telemetry.probe import Telemetry
from repro.telemetry.profile import TopRow, render_top, top_table
from repro.telemetry.spans import Span, Tracer, validate_spans

__all__ = [
    "Span",
    "Telemetry",
    "TopRow",
    "Tracer",
    "parse_chrome_trace",
    "render_top",
    "spans_to_chrome_trace",
    "top_table",
    "validate_spans",
    "write_trace",
]
