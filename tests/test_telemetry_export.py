"""Exporter round-trip: the trace artifact re-parses to what produced it.

The Chrome trace must reconstruct the exact span list (timestamps ride
in ``args.t0/t1`` because ``ts`` microseconds would quantise).
"""

import json

import pytest

from repro.telemetry.export import parse_chrome_trace, spans_to_chrome_trace, write_trace
from repro.telemetry.spans import Tracer


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

