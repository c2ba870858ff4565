"""Binary search on prefix lengths (Waldvogel et al.).

The third lookup scheme from the survey the paper cites ([9]): one hash
table per prefix length, searched by binary search over the set of
lengths in use — O(log W) hash probes instead of O(W) trie steps.
Correctness under binary search needs two auxiliary ideas, both
implemented here:

* **markers** — every prefix leaves a truncated marker at each shorter
  length in use, so the search knows longer matches may exist and moves
  toward them;
* **best-match precomputation** — a marker records the longest *real*
  prefix matching its own path at or below its level, so a search that
  was led astray by a marker (the longer match did not pan out) still
  ends with the correct answer without backtracking.

Updates are the scheme's known weakness (markers and precomputed best
matches depend on many prefixes); this implementation keeps the
authoritative route set in a dict and rebuilds the search structure
lazily on the first lookup after a mutation — the strategy real
control planes approximate with batch updates.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.forwarding.trie import BinaryTrie
from repro.net.addr import IPv4Address, Prefix, address_int


def _truncate(network: int, length: int) -> int:
    if length == 0:
        return 0
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return network & mask


class _Entry:
    """One hash-table entry: a real prefix, a marker, or both."""

    __slots__ = ("is_real", "value", "bmp_prefix", "bmp_value")

    def __init__(self) -> None:
        self.is_real = False
        self.value: Any = None
        self.bmp_prefix: Prefix | None = None
        self.bmp_value: Any = None


class LengthSearchTable:
    """LPM by binary search over per-length hash tables."""

    def __init__(self) -> None:
        self._routes: dict[Prefix, Any] = {}
        self._levels: list[int] = []
        self._tables: dict[int, dict[int, _Entry]] = {}
        self._dirty = False
        self.rebuilds = 0
        self.probes = 0

    def __len__(self) -> int:
        return len(self._routes)

    # -- mutation (lazy) ----------------------------------------------------

    def insert(self, prefix: Prefix, value: Any) -> bool:
        is_new = prefix not in self._routes
        self._routes[prefix] = value
        self._dirty = True
        return is_new

    def remove(self, prefix: Prefix) -> bool:
        if self._routes.pop(prefix, None) is None:
            return False
        self._dirty = True
        return True

    def exact(self, prefix: Prefix) -> Any:
        return self._routes.get(prefix)

    def items(self) -> Iterator[tuple[Prefix, Any]]:
        return iter(sorted(self._routes.items()))

    # -- build ------------------------------------------------------------------

    def _rebuild(self) -> None:
        self.rebuilds += 1
        self._dirty = False
        self._levels = sorted({prefix.length for prefix in self._routes})
        self._tables = {length: {} for length in self._levels}

        # Pass 1: real entries and markers.
        for prefix, value in self._routes.items():
            entry = self._tables[prefix.length].setdefault(prefix.network, _Entry())
            entry.is_real = True
            entry.value = value
            for length in self._levels:
                if length >= prefix.length:
                    break
                self._tables[length].setdefault(
                    _truncate(prefix.network, length), _Entry()
                )

        # Pass 2: best-match precomputation, ascending by level, using a
        # trie holding all real prefixes with length <= current level.
        shadow = BinaryTrie()
        for length in self._levels:
            for network, entry in self._tables[length].items():
                if entry.is_real:
                    shadow.insert(Prefix(network, length), entry.value)
            for network, entry in self._tables[length].items():
                best = shadow.lookup(network)
                if best is not None:
                    entry.bmp_prefix, entry.bmp_value = best

    # -- lookup ---------------------------------------------------------------------

    def lookup(self, address: IPv4Address | int) -> "tuple[Prefix, Any] | None":
        if self._dirty:
            self._rebuild()
        value = address_int(address)
        best: tuple[Prefix, Any] | None = None
        lo, hi = 0, len(self._levels) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            length = self._levels[mid]
            self.probes += 1
            entry = self._tables[length].get(_truncate(value, length))
            if entry is not None:
                if entry.bmp_prefix is not None:
                    best = (entry.bmp_prefix, entry.bmp_value)
                lo = mid + 1  # longer match may exist
            else:
                hi = mid - 1
        return best
