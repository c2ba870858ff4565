"""The lint engine: file discovery, suppression, rendering.

``lint_paths`` walks the given files/directories (default: the
installed ``repro`` package), parses each module once, runs every
registered rule over it, and drops findings suppressed by a per-line
``# repro: noqa`` / ``# repro: noqa[RPR001,RPR003]`` comment. Output is
either human ``file:line:col`` diagnostics or a machine-readable JSON
report (consumed by the CI ``lint`` job).
"""

from __future__ import annotations

import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.analysis.rules import Finding, ModuleContext, Rule, all_rules

#: Per-line suppression: blanket (``# repro: noqa``) or targeted
#: (``# repro: noqa[RPR001,RPR005]``).
NOQA_PATTERN = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Z0-9,\s]+)\])?")

#: Directory names never descended into during discovery.
SKIPPED_DIRS = frozenset({"__pycache__", ".git"})


@dataclass(slots=True)
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def to_jsonable(self) -> dict[str, object]:
        return {
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "parse_errors": list(self.parse_errors),
            "counts_by_rule": self.counts_by_rule(),
            "findings": [finding.to_jsonable() for finding in self.findings],
            "ok": self.ok,
        }


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if SKIPPED_DIRS.isdisjoint(candidate.parts):
                    yield candidate
        else:
            yield path


def suppressed_ids(source_line: str) -> "frozenset[str] | None":
    """Rule ids suppressed by the noqa text in *source_line*; empty
    frozenset = suppress all; None = no noqa comment.

    This is a pure text match — callers that have whole-module source
    must use :func:`noqa_map` instead, which only honours noqa text
    inside *real* comment tokens (a ``"# repro: noqa"`` string literal
    does not suppress anything).
    """
    match = NOQA_PATTERN.search(source_line)
    if match is None:
        return None
    if match.group(1) is None:
        return frozenset()
    return frozenset(part.strip() for part in match.group(1).split(",") if part.strip())


def noqa_map(source: str) -> "dict[int, frozenset[str]]":
    """``{line: suppressed ids}`` for every real ``# repro: noqa``
    comment in *source* (empty frozenset = suppress every rule).

    Tokenize-based: a noqa marker inside a string literal — test
    fixtures quoting the syntax, docstrings documenting it — is *not* a
    suppression. Falls back to a conservative per-line regex scan only
    when the module cannot be tokenized (callers run this after
    ``ast.parse`` succeeded, so that path is effectively dead).
    """
    out: dict[int, frozenset[str]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                ids = suppressed_ids(token.string)
                if ids is not None:
                    out[token.start[0]] = ids
    except (tokenize.TokenError, IndentationError, SyntaxError):
        out.clear()
        for lineno, line in enumerate(source.splitlines(), start=1):
            ids = suppressed_ids(line)
            if ids is not None:
                out[lineno] = ids
    return out


def is_suppressed(
    finding: Finding, noqa: "Mapping[int, frozenset[str]]"
) -> bool:
    """Does the noqa comment on the finding's line cover its rule?"""
    ids = noqa.get(finding.line)
    return ids is not None and (not ids or finding.rule_id in ids)


def lint_source(
    path: str, source: str, rules: "Sequence[Rule] | None" = None
) -> tuple[list[Finding], int]:
    """Lint one module's source; returns (kept findings, suppressed count)."""
    module = ModuleContext.parse(path, source)
    noqa = noqa_map(source)
    kept: list[Finding] = []
    suppressed = 0
    for rule in rules if rules is not None else all_rules():
        for finding in rule.check(module):
            if is_suppressed(finding, noqa):
                suppressed += 1
                continue
            kept.append(finding)
    kept.sort()
    return kept, suppressed


def lint_paths(
    paths: "Iterable[Path | str] | None" = None,
    select: "Iterable[str] | None" = None,
) -> LintReport:
    """Lint every ``*.py`` under *paths* (default: the ``repro`` package
    source tree) with all rules, or just the *select* rule ids.

    Raises :class:`ValueError` for an unknown rule id or a path that
    cannot be read as text — a usage error, not a finding."""
    if paths is None:
        import repro

        paths = [Path(repro.__file__).resolve().parent]
    rules = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.rule_id for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        rules = [rule for rule in rules if rule.rule_id in wanted]

    report = LintReport()
    for file_path in iter_python_files(Path(p) for p in paths):
        report.files_scanned += 1
        try:
            source = file_path.read_text()
        except OSError as error:
            raise ValueError(f"{file_path}: {error.strerror}") from error
        except UnicodeDecodeError as error:
            raise ValueError(f"{file_path}: not UTF-8 text ({error.reason})") from error
        try:
            findings, suppressed = lint_source(str(file_path), source, rules)
        except SyntaxError as error:
            report.parse_errors.append(f"{file_path}: {error.msg} (line {error.lineno})")
            continue
        report.findings.extend(findings)
        report.suppressed += suppressed
    report.findings.sort()
    return report


def render_text(report: LintReport) -> str:
    """Human-readable diagnostics plus a one-line summary."""
    lines = [finding.render() for finding in report.findings]
    lines.extend(f"parse error: {message}" for message in report.parse_errors)
    counts = report.counts_by_rule()
    breakdown = (
        " (" + ", ".join(f"{rule_id}×{counts[rule_id]}" for rule_id in sorted(counts)) + ")"
        if counts
        else ""
    )
    lines.append(
        f"{len(report.findings)} finding(s){breakdown} in "
        f"{report.files_scanned} file(s), {report.suppressed} suppressed"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Canonical machine-readable report (sorted keys, 2-space indent)."""
    return json.dumps(report.to_jsonable(), sort_keys=True, indent=2)


def render_rule_list() -> str:
    """``--list-rules``: every rule id, severity, title, and rationale."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id} [{rule.severity}] {rule.title}")
        rationale = (rule.__doc__ or "").strip()
        for doc_line in rationale.splitlines():
            lines.append(f"    {doc_line.strip()}")
    return "\n".join(lines)
