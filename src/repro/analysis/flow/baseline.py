"""The committed flow-findings baseline.

The flow pass over-approximates on purpose (virtual dispatch, no kill
on reassignment), so a tree can carry *accepted* findings — state that
is known fork-safe but not yet worth a per-line suppression, debt
scheduled for the parallel-engine PR. Those live in a committed
baseline file (``benchmarks/analysis/flow-baseline.json``); CI fails
only on findings **not** in the baseline, and reports baseline entries
the tree no longer produces as *stale* so the file shrinks as debt is
paid.

Baseline keys deliberately exclude line/column numbers: a finding is
identified by ``rule :: normalised path :: message`` (messages embed
the function qualname, not positions), so unrelated edits above a
finding do not churn the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.rules import Finding

BASELINE_VERSION = 1

#: Default committed location, relative to the repository root.
DEFAULT_BASELINE = Path("benchmarks/analysis/flow-baseline.json")


def normalize_path(path: str) -> str:
    """A machine-independent rendering of a finding path: from the last
    ``repro/`` package component when present, else the last two
    components (fixture files)."""
    posix = path.replace("\\", "/")
    marker = posix.rfind("/repro/")
    if marker >= 0:
        return posix[marker + 1 :]
    if posix.startswith("repro/"):
        return posix
    parts = posix.split("/")
    return "/".join(parts[-2:]) if len(parts) >= 2 else posix


def finding_key(finding: Finding) -> str:
    return f"{finding.rule_id}::{normalize_path(finding.path)}::{finding.message}"


def save_baseline(path: "Path | str", findings: Iterable[Finding]) -> Path:
    """Write a baseline pinning *findings* (sorted, deduplicated)."""
    path = Path(path)
    entries = sorted(
        {
            finding_key(finding): {
                "rule_id": finding.rule_id,
                "path": normalize_path(finding.path),
                "message": finding.message,
            }
            for finding in findings
        }.values(),
        key=lambda entry: (entry["rule_id"], entry["path"], entry["message"]),
    )
    payload = {"version": BASELINE_VERSION, "findings": entries}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: "Path | str") -> set[str]:
    """The set of baselined finding keys; raises ValueError, naming the
    file and what is wrong in it, on a file this version of the tool
    does not understand."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"flow baseline {path}: not a JSON object")
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"flow baseline {path}: unsupported version {payload.get('version')!r} "
            f"(expected {BASELINE_VERSION})"
        )
    findings = payload.get("findings")
    if not isinstance(findings, list):
        raise ValueError(f"flow baseline {path}: no 'findings' list")
    keys = set()
    for index, entry in enumerate(findings):
        if not isinstance(entry, dict):
            raise ValueError(f"flow baseline {path}: findings[{index}] is not an object")
        for field in ("rule_id", "path", "message"):
            if field not in entry:
                raise ValueError(f"flow baseline {path}: findings[{index}] has no {field!r}")
        keys.add(f"{entry['rule_id']}::{entry['path']}::{entry['message']}")
    return keys


def apply_baseline(
    findings: Sequence[Finding], baseline: "set[str] | None"
) -> "tuple[list[Finding], int, list[str]]":
    """Split *findings* against *baseline*.

    Returns ``(new_findings, baselined_count, stale_keys)`` where
    *stale_keys* are baseline entries no current finding matches —
    candidates for removal.
    """
    if baseline is None:
        return list(findings), 0, []
    new: list[Finding] = []
    seen: set[str] = set()
    baselined = 0
    for finding in findings:
        key = finding_key(finding)
        if key in baseline:
            seen.add(key)
            baselined += 1
        else:
            new.append(finding)
    stale = sorted(baseline - seen)
    return new, baselined, stale
