"""The textbook longest-prefix-match trie.

:class:`BinaryTrie` is the one-bit-per-level trie: simple, the
reference the property tests compare every other engine against, and
a building block of :class:`~repro.forwarding.multibit.MultibitTable`
and :class:`~repro.forwarding.lengthsearch.LengthSearchTable`. The
path-compressed (Patricia-style) trie the FIB and the RIBs run on is
:class:`repro.net.trie.PrefixTrieMap`; all four engines share the
``insert/remove/exact/lookup/items`` interface.

Values are opaque; the FIB stores next hops.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.net.addr import IPv4Address, Prefix, address_int
from repro.net.trie import _bit


class _BinaryNode:
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list[_BinaryNode | None] = [None, None]
        self.value: Any = None
        self.has_value = False


class BinaryTrie:
    """One-bit-per-level LPM trie over IPv4 prefixes."""

    def __init__(self) -> None:
        self._root = _BinaryNode()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, prefix: Prefix, value: Any) -> bool:
        """Insert or replace; returns True if the prefix was new."""
        node = self._root
        for i in range(prefix.length):
            bit = _bit(prefix.network, i)
            child = node.children[bit]
            if child is None:
                child = _BinaryNode()
                node.children[bit] = child
            node = child
        is_new = not node.has_value
        node.value = value
        node.has_value = True
        if is_new:
            self._count += 1
        return is_new

    def remove(self, prefix: Prefix) -> bool:
        """Remove; returns True if the prefix was present. Prunes empty
        branches so memory tracks the live table."""
        path: list[tuple[_BinaryNode, int]] = []
        node = self._root
        for i in range(prefix.length):
            bit = _bit(prefix.network, i)
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._count -= 1
        # Prune childless, valueless nodes bottom-up.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            assert child is not None
            if child.has_value or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return True

    def exact(self, prefix: Prefix) -> Any:
        """The value stored at exactly *prefix*, or None."""
        node = self._root
        for i in range(prefix.length):
            child = node.children[_bit(prefix.network, i)]
            if child is None:
                return None
            node = child
        return node.value if node.has_value else None

    def lookup(self, address: IPv4Address | int) -> "tuple[Prefix, Any] | None":
        """Longest-prefix match for *address*; None if no route covers it."""
        value = address_int(address)
        node = self._root
        best: tuple[Prefix, Any] | None = None
        depth = 0
        if node.has_value:
            best = (Prefix(0, 0), node.value)
        while depth < 32:
            child = node.children[_bit(value, depth)]
            if child is None:
                break
            depth += 1
            node = child
            if node.has_value:
                network = value & ~((1 << (32 - depth)) - 1) if depth < 32 else value
                best = (Prefix(network & 0xFFFFFFFF, depth), node.value)
        return best

    def items(self) -> Iterator[tuple[Prefix, Any]]:
        """All (prefix, value) pairs in lexicographic (network, length) order."""

        def walk(node: _BinaryNode, network: int, depth: int):
            if node.has_value:
                yield Prefix(network, depth), node.value
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    yield from walk(child, network | (bit << (31 - depth)), depth + 1)

        yield from walk(self._root, 0, 0)
