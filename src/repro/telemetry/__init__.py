"""Deterministic observability: metrics, spans, profiles, exporters.

The telemetry subsystem makes every run inspectable the way the paper's
own figures are — per-process CPU series, forwarding-rate curves,
per-phase timing — without changing a single result byte:

* :mod:`repro.telemetry.metrics` — a :class:`MetricRegistry` of labeled
  counters/gauges/histograms with fixed bucket edges and virtual-time
  stamps;
* :mod:`repro.telemetry.spans` — a :class:`Tracer` recording the
  phase → packet → UPDATE → decision/FIB span hierarchy;
* :mod:`repro.telemetry.probe` — the :class:`Telemetry` facade that
  attaches all hooks to a router in one call;
* :mod:`repro.telemetry.profile` — the top-style per-task virtual-CPU
  table;
* :mod:`repro.telemetry.export` — JSON-lines metrics and Chrome
  trace-event artifacts (plus the parsers that round-trip them);
* :mod:`repro.telemetry.validate` — artifact schema validation (the CI
  smoke job's checker).

The **observe-only guarantee**: an instrumented run is byte-identical
to a plain run. The golden regression gate pins this
(``bgpbench regress --telemetry``); see docs/TELEMETRY.md.
"""

from repro.telemetry.export import (
    metrics_to_jsonl,
    parse_chrome_trace,
    parse_metrics_jsonl,
    spans_to_chrome_trace,
    write_artifacts,
    write_metrics,
    write_trace,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.probe import FanoutObserver, Telemetry
from repro.telemetry.profile import TopRow, render_top, top_table
from repro.telemetry.spans import Span, Tracer, validate_spans

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "FanoutObserver",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Span",
    "Telemetry",
    "TopRow",
    "Tracer",
    "metrics_to_jsonl",
    "parse_chrome_trace",
    "parse_metrics_jsonl",
    "render_top",
    "spans_to_chrome_trace",
    "top_table",
    "validate_spans",
    "write_artifacts",
    "write_metrics",
    "write_trace",
]
