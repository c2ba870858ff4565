"""Schema validation for trace artifacts (CI's telemetry smoke job).

``python -m repro.telemetry.validate out.trace.json [...]`` re-parses
each trace with the same parser the exporter round-trip tests use and
asserts the structural invariants: span ids are unique, stamps are
finite, and spans are closed, nested inside their parents, and
time-monotone. Exit code 0 means every file validated; anything else
(a metrics file included) prints ``INVALID — <reason>`` and exits 1.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.telemetry.export import parse_chrome_trace
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


def main(argv: "list[str] | None" = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if not arguments:
        print("usage: python -m repro.telemetry.validate TRACE [...]", file=sys.stderr)
        return 2
    failures = 0
    for argument in arguments:
        try:
            summary = validate_trace_file(argument)
        except (ValueError, OSError) as error:
            print(f"{argument}: INVALID — {error}")
            failures += 1
        else:
            details = ", ".join(f"{key}={value}" for key, value in summary.items())
            print(f"{argument}: ok ({details})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
