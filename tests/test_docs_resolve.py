"""The prose names what exists: every dotted ``repro.*`` name in the
Markdown files imports, and every ``bgpbench`` command in a fenced block
parses with the real argument parser (it is parsed, not run).

Left out: a root-level file not in ``ROOT_DOCS``, such as the logs
(CHANGES.md, ROADMAP.md) and the paper's abstract (PAPER.md); a line
that says "deleted" or "retired" (DESIGN.md §7's census rows name what
is gone on purpose); and docs/PERF.md's ``## PR N`` sections, which
describe the tree as it stood at that PR.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.runner import build_parser

ROOT = Path(__file__).resolve().parents[1]
#: The root-level files that document the code; the rest there are logs.
ROOT_DOCS = {
    "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md", "PAPERS.md", "README.md", "SNIPPETS.md",
}
#: Tool output and caches that may hold Markdown of their own.
SKIPPED_DIRS = {".git", ".pytest_cache", ".hypothesis", ".benchmarks", ".bgpbench-cache"}

#: Files whose stale names cannot be fixed yet: file -> the names. This
#: list may only shrink; an entry whose names resolve must be removed.
KNOWN_STALE = {
    "benchmarks/ledger/README.md": {"repro.perf"},
}

NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
EXEMPT_LINE = re.compile(r"\b(deleted|retired)\b", re.IGNORECASE)
PR_SECTION = re.compile(r"^## PR \d+")
FENCE = re.compile(r"^\s*(```|~~~)")
#: Where a shell command line stops being the command: plumbing, or an
#: ellipsis standing for arguments left out (what precedes it is checked).
STOPS = {"|", "||", "&&", ";", ">", ">>", "2>", "2>&1", "&", "...", "…"}


def markdown_files():
    files = []
    for path in sorted(ROOT.rglob("*.md")):
        relative = path.relative_to(ROOT)
        if SKIPPED_DIRS & set(relative.parts):
            continue
        if len(relative.parts) == 1 and relative.name not in ROOT_DOCS:
            continue
        files.append(relative.as_posix())
    return files


def live_lines(relative):
    """``(number, line)`` for every line the name check reads."""
    in_pr_section = False
    for number, line in enumerate((ROOT / relative).read_text().splitlines(), 1):
        if relative == "docs/PERF.md" and line.startswith("## "):
            in_pr_section = bool(PR_SECTION.match(line))
        if in_pr_section or EXEMPT_LINE.search(line):
            continue
        yield number, line


def resolves(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def unresolved(relative):
    return {
        (name, number)
        for number, line in live_lines(relative)
        for name in NAME.findall(line)
        if not resolves(name)
    }


@pytest.mark.parametrize("relative", markdown_files())
def test_every_repro_name_resolves(relative):
    known = KNOWN_STALE.get(relative, set())
    stale = sorted((name, number) for name, number in unresolved(relative) if name not in known)
    assert stale == [], f"{relative}: names that do not import (name, line)"


@pytest.mark.parametrize("relative", sorted(KNOWN_STALE))
def test_known_stale_names_are_still_stale(relative):
    # Shrink-only: once a listed name resolves or leaves the file, its
    # entry goes.
    assert {name for name, _number in unresolved(relative)} >= KNOWN_STALE[relative]


def fenced_commands(relative):
    """``(line number, argv)`` for every ``bgpbench`` command in a fenced
    block, backslash continuations joined and shell plumbing cut off."""
    commands = []
    fence = None  # the open fence's indentation
    pending = None
    for number, line in enumerate((ROOT / relative).read_text().splitlines(), 1):
        opening = FENCE.match(line)
        if opening:
            fence = None if fence is not None else line[: opening.start(1)]
            pending = None
            continue
        if fence is None:
            continue
        # A command starts at the fence's indentation, after an optional
        # prompt; deeper lines are continuations or a tree's prose.
        command = line[len(fence):].removeprefix("$ ")
        if pending is not None:
            start, text = pending
            text += " " + line.strip()
        elif line.startswith(fence) and command.startswith("bgpbench "):
            start, text = number, command.strip()
        else:
            continue
        if text.endswith("\\"):
            pending = start, text[:-1]
            continue
        pending = None
        words = []
        for word in shlex.split(text, comments=True):
            if word in STOPS:
                break
            words.append(word)
        commands.append((start, words[1:]))
    return commands


COMMANDS = [
    pytest.param(argv, id=f"{relative}:{number}")
    for relative in markdown_files()
    for number, argv in fenced_commands(relative)
]


def test_the_docs_show_commands():
    assert len(COMMANDS) > 20


@pytest.mark.parametrize("argv", COMMANDS)
def test_every_fenced_bgpbench_command_parses(argv):
    parser = build_parser()
    try:
        parser.parse_args(argv)
    except SystemExit as stop:
        pytest.fail(f"bgpbench {' '.join(argv)}: the parser exits {stop.code}")
