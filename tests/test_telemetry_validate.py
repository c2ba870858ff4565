"""``python -m repro.telemetry.validate``: well-formed JSON of the wrong
shape is an invalid artifact (exit 1, one ``INVALID — <reason>`` line
naming the problem), never a traceback."""

import json

import pytest

from repro.telemetry.export import metrics_to_jsonl, spans_to_chrome_trace
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.spans import Tracer
from repro.telemetry.validate import main


def assert_invalid(path, capsys, reason):
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith(f"{path}: INVALID — {reason}")


@pytest.mark.parametrize(("name", "payload", "reason"), [
    ("x.trace.json", [1, 2], "not a JSON object with a 'traceEvents' list"),
    ("x.trace.json", {"displayTimeUnit": "ms"},
     "not a JSON object with a 'traceEvents' list"),
    ("x.trace.json", {"traceEvents": [1]}, "traceEvents[0]: not a JSON object"),
    ("x.trace.json", {"traceEvents": [{"ph": "X", "name": "p", "args": 3}]},
     "traceEvents[0]: 'args' is not a JSON object"),
    ("x.trace.json",
     {"traceEvents": [{"ph": "M"}, {"ph": "X", "name": "p", "args": {"t0": 0}}]},
     "traceEvents[1]: complete event has no 'span_id'"),
], ids=["list", "no-trace-events", "event-not-object", "args-not-object",
        "missing-key"])
def test_wrong_shape_trace_is_invalid(tmp_path, capsys, name, payload, reason):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    assert_invalid(path, capsys, reason)


@pytest.mark.parametrize(("lines", "reason"), [
    (["[1]"], "line 1: not a JSON object"),
    (['{"type": "family", "name": "repro_x_total", "kind": "counter", '
      '"help": "", "label_names": []}', "{"],
     "line 2: Expecting property name"),
    (['{"type": "family", "name": "repro_x_total"}'],
     "line 1: family record has no 'kind'"),
], ids=["line-not-object", "bad-json", "missing-key"])
def test_wrong_shape_metrics_line_is_invalid(tmp_path, capsys, lines, reason):
    path = tmp_path / "x.metrics.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert_invalid(path, capsys, reason)


COUNTER_FAMILY = ('{"type": "family", "name": "repro_x_total", "kind": "counter", '
                  '"help": "", "label_names": []}')
HISTOGRAM_FAMILY = ('{"type": "family", "name": "repro_h", "kind": "histogram", '
                    '"help": "", "label_names": [], "buckets": [1.0]}')


@pytest.mark.parametrize(("lines", "reason"), [
    ([COUNTER_FAMILY, '{"type": "sample", "name": "repro_x_total", "labels": {}, '
                      '"time": 0.0, "value": "x"}'],
     "line 2: 'value' is \"x\", not a number"),
    ([HISTOGRAM_FAMILY, '{"type": "sample", "name": "repro_h", "labels": {}, '
                        '"time": 0.0, "counts": [1, 0], "sum": 0.5, "count": 1.5}'],
     "line 2: 'count' is 1.5, not an integer"),
], ids=["string-counter-value", "fractional-histogram-count"])
def test_wrong_typed_metrics_value_is_invalid(tmp_path, capsys, lines, reason):
    path = tmp_path / "x.metrics.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert_invalid(path, capsys, reason)


def test_string_span_time_is_invalid(tmp_path, capsys):
    path = tmp_path / "x.trace.json"
    path.write_text(json.dumps({"traceEvents": [
        {"ph": "X", "name": "p", "args": {"span_id": 1, "t0": "a", "t1": 1.0}},
    ]}))
    assert_invalid(path, capsys, "traceEvents[0]: 't0' is \"a\", not a number")


def test_well_formed_artifacts_validate(tmp_path, capsys):
    clock = [0.0]
    tracer = Tracer(lambda: clock[0])
    phase = tracer.open("phase1", "phase")
    clock[0] = 1.0
    tracer.close(phase)
    registry = MetricRegistry()
    registry.counter("repro_x_total", "x").inc()
    trace = tmp_path / "x.trace.json"
    trace.write_text(spans_to_chrome_trace(tracer))
    metrics = tmp_path / "x.metrics.jsonl"
    metrics.write_text(metrics_to_jsonl(registry))
    assert main([str(trace), str(metrics)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{trace}: ok (spans=1, categories={{'phase': 1}})",
        f"{metrics}: ok (families=1, samples=1)",
    ]
