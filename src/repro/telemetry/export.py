"""Exporter: the span trace as Chrome trace-event JSON.

A trace artifact (``*.trace.json``) holds the span forest as ``"ph":
"X"`` complete events, loadable in Perfetto / ``chrome://tracing``.
Overlapping sibling spans (a windowed packet stream keeps several in
flight) are laid out on separate ``tid`` tracks; exact virtual
timestamps ride in ``args.t0``/``args.t1`` so :func:`parse_chrome_trace`
round-trips spans losslessly (``ts`` is microseconds and would
otherwise quantise).

All output is deterministic: spans in creation order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence

from repro.telemetry.spans import Span, Tracer


#: JSON value kinds an artifact field may be required to hold.
_KINDS = {"a finite number": (int, float), "an integer": int, "a string": str}


def _typed(value: Any, kind: str, where: str, key: str) -> Any:
    """*value* if it is *kind* (a :data:`_KINDS` key), else ``ValueError``
    naming *key* at *where*; ``true``/``false`` are not numbers here, and
    neither are the ``NaN``/``Infinity`` literals ``json.loads`` accepts."""
    if (
        isinstance(value, bool)
        or not isinstance(value, _KINDS[kind])
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ValueError(f"{where}: {key!r} is {json.dumps(value)}, not {kind}")
    return value


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
    event, or the first event whose ``span_id`` an earlier one holds."""
    payload = json.loads(text)
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list):
        raise ValueError("not a JSON object with a 'traceEvents' list")
    spans: list[Span] = []
    first_index: dict[int, int] = {}
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
        if span_id in first_index:
            raise ValueError(
                f"{where}: span_id {span_id} repeats "
                f"traceEvents[{first_index[span_id]}]"
            )
        first_index[span_id] = index
        if parent_id is not None:
            _typed(parent_id, "an integer", where, "parent_id")
        _typed(start, "a finite number", where, "t0")
        if end is not None:  # null: a span never closed, which validate_spans names
            _typed(end, "a finite number", where, "t1")
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
