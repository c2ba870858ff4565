"""Content-addressed on-disk cache for grid cell results.

A cell's cache key (:func:`cell_key`) is ``sha256(spec_json + "\\n" +
fingerprint)`` where ``spec_json`` is the canonical JSON of the cell
spec (:func:`spec_json`) and the fingerprint digests every ``*.py``
file of the ``repro`` source tree (relative path and contents). Any
change to the simulator, the BGP stack, or the harness therefore
invalidates every cached cell — stale results can never masquerade as
fresh ones — while re-running an unchanged grid is pure cache hits.

Layout::

    <cache-root>/<key[:2]>/<key>.json

Each entry stores the spec and fingerprint it was keyed under next to
the result, so entries are self-describing and auditable by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.grid.cells import Cell

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".bgpbench-cache")

#: Bumped when the entry layout changes; old entries are ignored.
CACHE_FORMAT = 1

#: Directories whose contents can never change a cell result: test
#: suites, documentation, and compiled bytecode. Excluding them keeps a
#: doc-only or test-only commit from invalidating every cached cell.
FINGERPRINT_EXCLUDED_DIRS = frozenset({"tests", "docs", "__pycache__"})

#: Only these suffixes participate in the digest — ``*.md`` and other
#: documentation files are deliberately outside the key.
FINGERPRINT_SUFFIXES = (".py",)


def _fingerprint_files(root: Path) -> "list[Path]":
    """The files the fingerprint digests, in sorted (deterministic) order."""
    return [
        path
        for suffix in FINGERPRINT_SUFFIXES
        for path in sorted(root.rglob(f"*{suffix}"))
        if FINGERPRINT_EXCLUDED_DIRS.isdisjoint(path.relative_to(root).parts[:-1])
    ]


def source_fingerprint(root: "Path | None" = None) -> str:
    """Digest the ``repro`` source tree (or *root*): every ``*.py``
    file's relative path and bytes, in sorted order. ``tests/``,
    ``docs/``, ``__pycache__/`` subtrees and non-``.py`` files (e.g.
    ``*.md``) are excluded — they cannot change a cell's result, so
    editing them must not invalidate the cache."""
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in _fingerprint_files(root):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def spec_json(cell: Cell) -> str:
    """Canonical JSON of the cell spec (sorted keys, no whitespace, so
    the hashed bytes never depend on formatting) — the hashed half of
    the cache key."""
    return json.dumps(cell.spec(), sort_keys=True, separators=(",", ":"))


def cell_key(cell: Cell, fingerprint: str) -> str:
    """Content address: cell spec plus source-tree fingerprint."""
    digest = hashlib.sha256()
    digest.update(spec_json(cell).encode("utf-8"))
    digest.update(b"\n")
    digest.update(fingerprint.encode("utf-8"))
    return digest.hexdigest()


class GridCache:
    """Get/put cell results under their content address.

    *fingerprint* defaults to the live source tree's; passing one
    explicitly is how tests pin or perturb it.
    """

    def __init__(self, root: "Path | str" = DEFAULT_CACHE_DIR,
                 fingerprint: "str | None" = None):
        self.root = Path(root)
        self.fingerprint = fingerprint if fingerprint is not None else source_fingerprint()
        self.hits = 0
        self.misses = 0

    def path_for(self, cell: Cell) -> Path:
        key = cell_key(cell, self.fingerprint)
        return self.root / key[:2] / f"{key}.json"

    def get(self, cell: Cell) -> "dict[str, object] | None":
        """The cached result for *cell*, or None. Unreadable or
        mismatched entries count as misses (and are re-computed)."""
        path = self.path_for(cell)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != CACHE_FORMAT
            or entry.get("cell") != cell.spec()
            or "result" not in entry
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry["result"]

    def put(self, cell: Cell, result: "dict[str, object]") -> Path:
        """Store *result* atomically (write-then-rename) and return the
        entry path."""
        path = self.path_for(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "cell": cell.spec(),
            "fingerprint": self.fingerprint,
            "result": result,
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(entry, sort_keys=True, indent=2))
        tmp.replace(path)
        return path
