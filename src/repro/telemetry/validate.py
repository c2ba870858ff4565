"""Schema validation for telemetry artifacts (CI's telemetry smoke job).

``python -m repro.telemetry.validate out.trace.json out.metrics.jsonl``
re-parses each artifact with the same parsers the exporter round-trip
tests use and asserts the structural invariants: trace spans must be
closed, nested inside their parents, and time-monotone; metrics files
must declare every family before its samples, and histogram bucket
counts must sum to the advertised count. Exit code 0 means every file
validated.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.telemetry.export import parse_chrome_trace, parse_metrics_jsonl
from repro.telemetry.spans import validate_spans


def validate_trace_file(path: "Path | str") -> dict[str, object]:
    """Validate a Chrome trace-event artifact; returns a summary dict or
    raises ``ValueError`` describing the first problem."""
    text = Path(path).read_text()
    spans = parse_chrome_trace(text)
    if not spans:
        raise ValueError("trace contains no spans")
    validate_spans(spans)
    categories: dict[str, int] = {}
    for span in spans:
        categories[span.category] = categories.get(span.category, 0) + 1
    return {"spans": len(spans), "categories": dict(sorted(categories.items()))}


def validate_metrics_file(path: "Path | str") -> dict[str, object]:
    """Validate a JSON-lines metrics artifact; returns a summary dict or
    raises ``ValueError``."""
    state = parse_metrics_jsonl(Path(path).read_text())
    if not state:
        raise ValueError("metrics file declares no families")
    samples = 0
    for name, family in state.items():
        for child in family["children"]:  # type: ignore[index]
            samples += 1
            if family["kind"] == "histogram":  # type: ignore[index]
                counts = child["counts"]
                if any(count < 0 for count in counts):
                    raise ValueError(f"{name}: negative bucket count")
                if sum(counts) != child["count"]:
                    raise ValueError(
                        f"{name}: bucket counts sum to {sum(counts)}, "
                        f"advertised count is {child['count']}"
                    )
            elif family["kind"] == "counter" and child["value"] < 0:  # type: ignore[index]
                raise ValueError(f"{name}: negative counter value")
    return {"families": len(state), "samples": samples}


def validate_file(path: "Path | str") -> dict[str, object]:
    """Dispatch on artifact shape: trace JSON vs metrics file."""
    path = Path(path)
    if path.name.endswith((".trace.json", ".json")) and path.suffix != ".jsonl":
        return validate_trace_file(path)
    return validate_metrics_file(path)


def main(argv: "list[str] | None" = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if not arguments:
        print("usage: python -m repro.telemetry.validate ARTIFACT [...]", file=sys.stderr)
        return 2
    failures = 0
    for argument in arguments:
        try:
            summary = validate_file(argument)
        except (ValueError, OSError) as error:
            print(f"{argument}: INVALID — {error}")
            failures += 1
        else:
            details = ", ".join(f"{key}={value}" for key, value in summary.items())
            print(f"{argument}: ok ({details})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
