"""Exporters: JSON-lines metrics and Chrome trace JSON.

Two artifact formats:

* **JSON-lines** (``*.jsonl``) — the lossless machine format: one
  ``family`` line per metric family followed by one ``sample`` line per
  labelled child. :func:`parse_metrics_jsonl` reconstructs exactly the
  :meth:`~repro.telemetry.metrics.MetricRegistry.state` snapshot that
  produced it (the round-trip the tests pin).
* **Chrome trace events** (``*.trace.json``) — the span forest as
  ``"ph": "X"`` complete events, loadable in Perfetto /
  ``chrome://tracing``. Overlapping sibling spans (a windowed packet
  stream keeps several in flight) are laid out on separate ``tid``
  tracks; exact virtual timestamps ride in ``args.t0``/``args.t1`` so
  :func:`parse_chrome_trace` round-trips spans losslessly (``ts`` is
  microseconds and would otherwise quantise).

All output is deterministic: families in name order, children in label
order, spans in creation order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.spans import Span, Tracer

if TYPE_CHECKING:
    from repro.telemetry.probe import Telemetry


def _dumps(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: JSON value kinds an artifact field may be required to hold.
_KINDS = {"a number": (int, float), "an integer": int, "a string": str, "a list": list}


def _typed(value: Any, kind: str, where: str, key: str) -> Any:
    """*value* if it is *kind* (a :data:`_KINDS` key), else ``ValueError``
    naming *key* at *where*; ``true``/``false`` are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise ValueError(f"{where}: {key!r} is {json.dumps(value)}, not {kind}")
    return value


# -- JSON-lines metrics ------------------------------------------------------


def metrics_to_jsonl(registry: MetricRegistry) -> str:
    """One JSON object per line; lossless against ``registry.state()``."""
    lines: list[str] = []
    state = registry.state()
    for name, family in state.items():
        declaration: dict[str, object] = {
            "type": "family",
            "name": name,
            "kind": family["kind"],
            "help": family["help"],
            "label_names": family["labels"],
        }
        if family["kind"] == "histogram":
            declaration["buckets"] = family["buckets"]
        lines.append(_dumps(declaration))
        for child in family["children"]:  # type: ignore[union-attr]
            sample: dict[str, object] = {
                "type": "sample",
                "name": name,
                "labels": child["labels"],
                "time": child["time"],
            }
            if family["kind"] == "histogram":
                sample["counts"] = child["counts"]
                sample["sum"] = child["sum"]
                sample["count"] = child["count"]
            elif family["kind"] == "gauge":
                sample["value"] = child["value"]
                sample["samples"] = child["samples"]
            else:
                sample["value"] = child["value"]
            lines.append(_dumps(sample))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_metrics_jsonl(text: str) -> dict[str, object]:
    """Rebuild the ``MetricRegistry.state()`` snapshot from JSON-lines;
    raises ``ValueError`` naming the first malformed line."""
    state: dict[str, dict] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise ValueError(f"line {line_number}: {error}") from None
        if not isinstance(record, dict):
            raise ValueError(f"line {line_number}: not a JSON object")
        where = f"line {line_number}"
        kind = record.get("type")
        if kind not in ("family", "sample"):
            raise ValueError(f"{where}: unknown record type {kind!r}")
        try:
            name = _typed(record["name"], "a string", where, "name")
            if kind == "family":
                family: dict[str, object] = {
                    "kind": record["kind"],
                    "help": record["help"],
                    "labels": record["label_names"],
                    "children": [],
                }
                if record["kind"] == "histogram":
                    family["buckets"] = record["buckets"]
                state[name] = family
            else:
                family = state.get(name)
                if family is None:
                    raise ValueError(f"{where}: sample for undeclared family {name!r}")
                child: dict[str, object] = {
                    "labels": record["labels"],
                    "time": _typed(record["time"], "a number", where, "time"),
                }
                if family["kind"] == "histogram":
                    counts = _typed(record["counts"], "a list", where, "counts")
                    for count in counts:
                        _typed(count, "an integer", where, "counts")
                    child["counts"] = counts
                    child["sum"] = _typed(record["sum"], "a number", where, "sum")
                    child["count"] = _typed(record["count"], "an integer", where, "count")
                elif family["kind"] == "gauge":
                    child["value"] = _typed(record["value"], "a number", where, "value")
                    samples = _typed(record["samples"], "a list", where, "samples")
                    for pair in samples:
                        for item in _typed(pair, "a list", where, "samples"):
                            _typed(item, "a number", where, "samples")
                    child["samples"] = samples
                else:
                    child["value"] = _typed(record["value"], "a number", where, "value")
                family["children"].append(child)  # type: ignore[union-attr]
        except KeyError as error:
            raise ValueError(f"{where}: {kind} record has no {error}") from None
    return state


# -- Chrome trace events -----------------------------------------------------

#: Seconds of virtual time per Chrome-trace microsecond tick.
_MICROSECONDS = 1e6


def _allocate_tracks(spans: Sequence[Span]) -> dict[int, int]:
    """Greedy track (``tid``) assignment so overlapping spans render on
    separate rows: each span takes the lowest-numbered track that is
    free at its start time. Deterministic given creation order."""
    track_free_at: list[float] = []
    assignment: dict[int, int] = {}
    for span in spans:
        end = span.end if span.end is not None else span.start
        for track, free_at in enumerate(track_free_at):
            if free_at <= span.start:
                assignment[span.span_id] = track
                track_free_at[track] = end
                break
        else:
            assignment[span.span_id] = len(track_free_at)
            track_free_at.append(end)
    return assignment


def spans_to_chrome_trace(source: "Tracer | Sequence[Span]") -> str:
    """The span forest as Chrome trace-event JSON (Perfetto-loadable)."""
    spans = source.spans() if isinstance(source, Tracer) else list(source)
    tracks = _allocate_tracks(spans)
    events: list[dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "bgpbench (virtual time)"},
        }
    ]
    for span in spans:
        end = span.end if span.end is not None else span.start
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args["t0"] = span.start
        args["t1"] = end
        if span.backdated:
            args["backdated"] = True
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * _MICROSECONDS,
                "dur": (end - span.start) * _MICROSECONDS,
                "pid": 0,
                "tid": tracks[span.span_id],
                "args": args,
            }
        )
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, sort_keys=True, indent=1
    )


def parse_chrome_trace(text: str) -> list[Span]:
    """Rebuild the span list from Chrome trace-event JSON, using the
    exact ``args.t0``/``args.t1`` stamps; spans return in creation
    (span-id) order. Raises ``ValueError`` naming the first malformed
    event."""
    payload = json.loads(text)
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list):
        raise ValueError("not a JSON object with a 'traceEvents' list")
    spans: list[Span] = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}]: not a JSON object")
        if event.get("ph") != "X":
            continue
        if not isinstance(event.get("args"), dict):
            raise ValueError(f"traceEvents[{index}]: 'args' is not a JSON object")
        args = dict(event["args"])
        try:
            span_id = args.pop("span_id")
            parent_id = args.pop("parent_id", None)
            start = args.pop("t0")
            end = args.pop("t1")
            name = event["name"]
        except KeyError as error:
            raise ValueError(f"traceEvents[{index}]: complete event has no {error}") from None
        where = f"traceEvents[{index}]"
        _typed(span_id, "an integer", where, "span_id")
        if parent_id is not None:
            _typed(parent_id, "an integer", where, "parent_id")
        _typed(start, "a number", where, "t0")
        if end is not None:  # null: a span never closed, which validate_spans names
            _typed(end, "a number", where, "t1")
        _typed(event.get("cat", ""), "a string", where, "cat")
        backdated = bool(args.pop("backdated", False))
        spans.append(
            Span(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                category=event.get("cat", ""),
                start=start,
                end=end,
                args=args,
                backdated=backdated,
            )
        )
    spans.sort(key=lambda span: span.span_id)
    return spans


# -- file helpers ------------------------------------------------------------


def write_trace(source: "Tracer | Sequence[Span]", path: "Path | str") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(spans_to_chrome_trace(source) + "\n")
    return path


def write_metrics(registry: MetricRegistry, path: "Path | str") -> Path:
    """Write the registry as JSON-lines, whatever the suffix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_to_jsonl(registry))
    return path


def write_artifacts(
    telemetry: "Telemetry",
    trace_path: "Path | str | None" = None,
    metrics_path: "Path | str | None" = None,
) -> list[Path]:
    """Write whichever artifacts were asked for; returns written paths."""
    written: list[Path] = []
    if trace_path is not None:
        written.append(write_trace(telemetry.tracer, trace_path))
    if metrics_path is not None:
        written.append(write_metrics(telemetry.registry, metrics_path))
    return written
