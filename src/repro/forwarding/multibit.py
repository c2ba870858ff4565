"""A two-level multibit lookup table (the DIR-24-8 scheme).

Gupta, Lin, and McKeown's DIR-24-8-BASIC — covered by the Ruiz-Sánchez
survey the paper cites ([9]) — trades memory for a bounded lookup of at
most two table accesses: a first-level table indexed by the top bits of
the address whose slots either hold a (length, next-hop) pair directly
or point to a second-level *chunk* indexed by the remaining bits.

Hardware splits 24/8; the Python default is 16/16, which keeps both the
first level and the chunks at 2^16 — the algorithmic structure
(controlled prefix expansion, two-level indirection, O(1) lookup) is
identical. Updates rebuild exactly the slots a prefix covers from two
shadow structures: a trie of short prefixes (length ≤ split) and a
per-slot map of long prefixes, so correctness never depends on
incremental expansion surgery.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.forwarding.trie import BinaryTrie
from repro.net.addr import IPv4Address, Prefix, address_int


class MultibitTable:
    """Two-level expanded lookup table."""

    def __init__(self, first_level_bits: int = 16):
        if not 1 <= first_level_bits <= 24:
            raise ValueError("first_level_bits must be in [1, 24]")
        self.split = first_level_bits
        self.sub_bits = 32 - first_level_bits
        #: slot -> ("direct", length, value) or ("chunk", {sub: (length, value)})
        self._first: dict[int, tuple] = {}
        self._short = BinaryTrie()  # prefixes with length <= split
        self._long: dict[int, dict[Prefix, Any]] = {}  # slot -> {prefix: value}
        self._count = 0
        self.slot_rebuilds = 0

    def __len__(self) -> int:
        return self._count

    # -- helpers ----------------------------------------------------------

    def _slot_of(self, prefix: Prefix) -> int:
        return prefix.network >> self.sub_bits

    def _slots_covered(self, prefix: Prefix) -> range:
        first = self._slot_of(prefix)
        if prefix.length >= self.split:
            return range(first, first + 1)
        return range(first, first + (1 << (self.split - prefix.length)))

    def _sub_range(self, prefix: Prefix) -> range:
        """Second-level indices covered by a long prefix within its slot."""
        sub_prefix_bits = prefix.length - self.split
        base = prefix.network & ((1 << self.sub_bits) - 1)
        return range(base, base + (1 << (self.sub_bits - sub_prefix_bits)))

    def _rebuild_slot(self, slot: int) -> None:
        """Recompute one first-level slot from the shadow structures."""
        self.slot_rebuilds += 1
        base_address = slot << self.sub_bits
        short_hit = self._short.lookup(base_address)
        longs = self._long.get(slot)
        if not longs:
            if short_hit is None:
                self._first.pop(slot, None)
            else:
                short_prefix, value = short_hit
                self._first[slot] = ("direct", short_prefix.length, value)
            return
        chunk: dict[int, tuple[int, Any]] = {}
        if short_hit is not None:
            short_prefix, value = short_hit
            fill = (short_prefix.length, value)
            for sub in range(1 << self.sub_bits):
                chunk[sub] = fill
        for prefix in sorted(longs, key=lambda p: p.length):
            entry = (prefix.length, longs[prefix])
            for sub in self._sub_range(prefix):
                chunk[sub] = entry
        self._first[slot] = ("chunk", chunk)

    # -- mutation ------------------------------------------------------------

    def insert(self, prefix: Prefix, value: Any) -> bool:
        if prefix.length <= self.split:
            is_new = self._short.insert(prefix, value)
        else:
            slot_routes = self._long.setdefault(self._slot_of(prefix), {})
            is_new = prefix not in slot_routes
            slot_routes[prefix] = value
        for slot in self._slots_covered(prefix):
            self._rebuild_slot(slot)
        if is_new:
            self._count += 1
        return is_new

    def remove(self, prefix: Prefix) -> bool:
        if prefix.length <= self.split:
            removed = self._short.remove(prefix)
        else:
            slot = self._slot_of(prefix)
            removed = self._long.get(slot, {}).pop(prefix, None) is not None
            if removed and not self._long[slot]:
                del self._long[slot]
        if not removed:
            return False
        for slot in self._slots_covered(prefix):
            self._rebuild_slot(slot)
        self._count -= 1
        return True

    def exact(self, prefix: Prefix) -> Any:
        if prefix.length <= self.split:
            return self._short.exact(prefix)
        return self._long.get(self._slot_of(prefix), {}).get(prefix)

    # -- lookup: at most two table accesses -------------------------------------

    def lookup(self, address: IPv4Address | int) -> "tuple[Prefix, Any] | None":
        value = address_int(address)
        entry = self._first.get(value >> self.sub_bits)
        if entry is None:
            return None
        if entry[0] == "direct":
            _kind, length, stored = entry
        else:
            hit = entry[1].get(value & ((1 << self.sub_bits) - 1))
            if hit is None:
                return None
            length, stored = hit
        return Prefix.from_address(IPv4Address(value), length), stored

    def items(self) -> Iterator[tuple[Prefix, Any]]:
        for prefix, value in self._short.items():
            yield prefix, value
        for slot in sorted(self._long):
            for prefix in sorted(self._long[slot]):
                yield prefix, self._long[slot][prefix]
