"""``python -m repro.telemetry.validate``: well-formed JSON of the wrong
shape is an invalid trace (exit 1, one ``INVALID — <reason>`` line
naming the problem), never a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.telemetry.export import spans_to_chrome_trace
from repro.telemetry.spans import Tracer
from repro.telemetry.validate import main


def assert_invalid(path, capsys, reason):
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith(f"{path}: INVALID — {reason}")


def complete_event(span_id=1, t0=0.0, t1=1.0, name="p"):
    return {"ph": "X", "name": name, "args": {"span_id": span_id, "t0": t0, "t1": t1}}


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


def test_string_span_time_is_invalid(tmp_path, capsys):
    path = tmp_path / "x.trace.json"
    path.write_text(json.dumps({"traceEvents": [complete_event(t0="a")]}))
    assert_invalid(path, capsys, "traceEvents[0]: 't0' is \"a\", not a finite number")


# json.loads reads the NaN/Infinity literals as floats, and NaN passes
# every ordering check validate_spans makes: the parser must refuse them.
@pytest.mark.parametrize(("event", "reason"), [
    (complete_event(t0=float("nan")), "traceEvents[1]: 't0' is NaN, not a finite number"),
    (complete_event(t1=float("inf")),
     "traceEvents[1]: 't1' is Infinity, not a finite number"),
    (complete_event(t0=float("-inf")),
     "traceEvents[1]: 't0' is -Infinity, not a finite number"),
], ids=["nan-t0", "infinity-t1", "minus-infinity-t0"])
def test_non_finite_span_time_is_invalid(tmp_path, capsys, event, reason):
    path = tmp_path / "x.trace.json"
    path.write_text(json.dumps({"traceEvents": [{"ph": "M"}, event]}))
    assert_invalid(path, capsys, reason)


def test_repeated_span_id_is_invalid(tmp_path, capsys):
    path = tmp_path / "x.trace.json"
    path.write_text(json.dumps({"traceEvents": [
        complete_event(1, name="a"), {"ph": "M"}, complete_event(1, name="b"),
    ]}))
    assert_invalid(path, capsys, "traceEvents[2]: span_id 1 repeats traceEvents[0]")


def test_metrics_file_is_invalid_without_a_traceback(tmp_path):
    """The validator reads traces only: a JSON-lines metrics file from an
    older run is an invalid trace, reported on one line."""
    path = tmp_path / "x.metrics.jsonl"
    path.write_text(
        '{"type": "family", "name": "repro_x_total", "kind": "counter", '
        '"help": "", "label_names": []}\n'
        '{"type": "sample", "name": "repro_x_total", "labels": {}, '
        '"time": 0.0, "value": 1.0}\n'
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.telemetry.validate", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 1
    assert completed.stdout.startswith(f"{path}: INVALID — ")
    assert completed.stdout.count("\n") == 1
    assert "Traceback" not in completed.stderr


def test_well_formed_artifacts_validate(tmp_path, capsys):
    clock = [0.0]
    tracer = Tracer(lambda: clock[0])
    phase = tracer.open("phase1", "phase")
    clock[0] = 1.0
    tracer.close(phase)
    trace = tmp_path / "x.trace.json"
    trace.write_text(spans_to_chrome_trace(tracer))
    assert main([str(trace)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{trace}: ok (spans=1, categories={{'phase': 1}})",
    ]
