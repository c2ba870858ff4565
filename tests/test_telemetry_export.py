"""Exporter round-trips: every artifact re-parses to what produced it.

JSON-lines must reconstruct the exact ``MetricRegistry.state()``
snapshot; the Chrome trace must reconstruct the exact span list
(timestamps ride in ``args.t0/t1`` because ``ts`` microseconds would
quantise).
"""

import json

import pytest

from repro.telemetry.export import (
    metrics_to_jsonl,
    parse_chrome_trace,
    parse_metrics_jsonl,
    spans_to_chrome_trace,
    write_metrics,
    write_trace,
)
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.spans import Tracer


def populated_registry() -> MetricRegistry:
    times = iter(float(i) for i in range(100))
    reg = MetricRegistry(clock=lambda: next(times))
    packets = reg.counter("repro_packets_total", "packets", ("peer",))
    packets.inc(3, peer="p1")
    packets.inc(1, peer="p2")
    depth = reg.gauge("repro_depth", "queue depth")
    depth.set(2.0)
    depth.set(5.0)
    latency = reg.histogram(
        "repro_latency_seconds", "latency", buckets=(0.001, 0.01, 0.1)
    )
    for value in (0.0005, 0.05, 7.0):
        latency.observe(value)
    return reg


def populated_tracer() -> Tracer:
    clock_value = [0.0]
    tracer = Tracer(lambda: clock_value[0])
    phase = tracer.open("phase1", "phase", number=1)
    clock_value[0] = 1.0
    first = tracer.open("packet", "packet", parent=phase, peer="p1")
    clock_value[0] = 2.0
    # Overlapping sibling while the first packet is still in flight.
    second = tracer.open("packet", "packet", parent=phase, peer="p2")
    clock_value[0] = 3.0
    tracer.close(first)
    clock_value[0] = 4.0
    # Backdated: recorded now, started while the others were in flight.
    queued = tracer.open("packet", "packet", parent=phase, start=1.5, peer="p3")
    tracer.close(second)
    clock_value[0] = 5.0
    tracer.close(queued)
    tracer.close(phase)
    return tracer


class TestMetricsJsonl:
    def test_roundtrip_reconstructs_state_exactly(self):
        reg = populated_registry()
        assert parse_metrics_jsonl(metrics_to_jsonl(reg)) == reg.state()

    def test_sample_without_family_rejected(self):
        line = json.dumps(
            {"type": "sample", "name": "repro_x_total", "labels": {}, "time": 0.0, "value": 1.0}
        )
        with pytest.raises(ValueError, match="undeclared family"):
            parse_metrics_jsonl(line)

    def test_empty_registry_exports_empty(self):
        assert metrics_to_jsonl(MetricRegistry()) == ""
        assert parse_metrics_jsonl("") == {}

    def test_output_is_deterministic(self):
        assert metrics_to_jsonl(populated_registry()) == metrics_to_jsonl(
            populated_registry()
        )

    def test_write_metrics_writes_jsonl(self, tmp_path):
        reg = populated_registry()
        path = write_metrics(reg, tmp_path / "deep" / "m.metrics.jsonl")
        assert parse_metrics_jsonl(path.read_text()) == reg.state()


class TestChromeTrace:
    def test_roundtrip_reconstructs_spans_exactly(self):
        tracer = populated_tracer()
        restored = parse_chrome_trace(spans_to_chrome_trace(tracer))
        assert restored == tracer.spans()

    def test_backdated_flag_survives_roundtrip(self):
        tracer = populated_tracer()
        restored = parse_chrome_trace(spans_to_chrome_trace(tracer))
        assert [span.span_id for span in restored if span.backdated] == [
            span.span_id for span in tracer.spans() if span.backdated
        ]

    def test_overlapping_siblings_get_distinct_tracks(self):
        payload = json.loads(spans_to_chrome_trace(populated_tracer()))
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event["tid"])
        # phase1 and its two concurrent packets cannot share a track.
        packet_tracks = by_name["packet"]
        assert len(set(packet_tracks) | set(by_name["phase1"])) >= 3

    def test_timestamps_are_microseconds(self):
        payload = json.loads(spans_to_chrome_trace(populated_tracer()))
        phase = next(
            e for e in payload["traceEvents"] if e.get("name") == "phase1"
        )
        assert phase["ts"] == 0.0
        assert phase["dur"] == pytest.approx(5.0 * 1e6)

    def test_write_trace_creates_parents(self, tmp_path):
        path = write_trace(populated_tracer(), tmp_path / "deep" / "out.trace.json")
        assert path.exists()
        assert parse_chrome_trace(path.read_text())

