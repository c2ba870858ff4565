"""An indexed patricia trie mapping prefixes to values.

:class:`PrefixTrieMap` is the one per-prefix store in the tree: the
three RIB structures (:mod:`repro.bgp.rib`) and the FIB
(:mod:`repro.forwarding.fib`) all sit on it. It speaks the vocabulary
of the other LPM engines (``insert/remove/exact/lookup/items``, see
:mod:`repro.forwarding.trie`) and combines two classic router
techniques (surveyed by Ruiz-Sánchez et al., paper ref. [9], and used
by production stacks in the py-radix family):

* a **path-compressed binary trie** keyed on prefix bits, giving
  ordered traversal and subtree ("covered routes") enumeration in time
  proportional to the answer, and
* an **exact-match index** from the packed 38-bit ``(network, length)``
  integer key straight to the trie node, so the per-UPDATE operations
  (exact / insert / replace / remove) cost one small-int dict probe
  instead of a dataclass hash plus a bit-walk.

Withdrawn prefixes leave their node in place as a *tombstone* (value
cleared, structure retained). Routing churn overwhelmingly re-announces
recently withdrawn prefixes, so the re-add is an O(1) index hit rather
than a root-to-leaf splice — the same reasoning that makes real RIB
implementations keep their radix skeleton warm. Lookups and traversals
walk through tombstones and report only live entries.

Iteration is **deterministic**: ascending ``(network, length)`` order,
which is exactly the trie's value-before-children, left-before-right
walk. All iterators are snapshots — mutating the map while consuming a
previously obtained iterator is safe.
"""

from __future__ import annotations

from typing import Any

from repro.net.addr import IPv4Address, Prefix, address_int

__all__ = ["PrefixTrieMap"]


class _Node:
    """One trie node: the prefix bits on the path to it, plus payload."""

    __slots__ = ("network", "length", "prefix", "value", "has_value", "left", "right")

    def __init__(self, network: int, length: int, prefix: "Prefix | None" = None):
        self.network = network
        self.length = length
        #: The Prefix object for stored entries (kept so iteration never
        #: re-constructs — and therefore never re-validates — prefixes).
        self.prefix = prefix
        self.value: Any = None
        self.has_value = False
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None


def _bit(network: int, index: int) -> int:
    """Bit *index* of a 32-bit network, MSB first (index 0 = top bit)."""
    return (network >> (31 - index)) & 1


def _common_prefix_len(a: int, b: int, limit: int) -> int:
    """Shared leading bits of two 32-bit values, capped at *limit*."""
    diff = a ^ b
    if diff == 0:
        return limit
    return min(32 - diff.bit_length(), limit)


class PrefixTrieMap:
    """A mapping ``Prefix -> value`` with trie-order iteration."""

    __slots__ = ("_root", "_index", "_count")

    def __init__(self) -> None:
        self._root: "_Node | None" = None
        #: packed ``(network << 6) | length`` key -> node (including
        #: tombstones awaiting reuse).
        self._index: dict[int, _Node] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._index.get((prefix.network << 6) | prefix.length)
        return node is not None and node.has_value

    def exact(self, prefix: Prefix) -> Any:
        """The value stored at exactly *prefix*, or None."""
        node = self._index.get((prefix.network << 6) | prefix.length)
        if node is None or not node.has_value:
            return None
        return node.value

    def lookup(self, address: "IPv4Address | int") -> "tuple[Prefix, Any] | None":
        """Longest-prefix match for *address*; None if no route covers it."""
        value = address_int(address)
        best = None
        node = self._root
        while node is not None:
            length = node.length
            if (value ^ node.network) >> (32 - length):
                break  # the address leaves this node's prefix
            if node.has_value:
                best = node
            if length == 32:
                break
            node = node.right if (value >> (31 - length)) & 1 else node.left
        return None if best is None else (best.prefix, best.value)

    # -- mutation -----------------------------------------------------------

    def insert(self, prefix: Prefix, value: Any) -> bool:
        """Insert or replace; returns True when the prefix was absent."""
        key = (prefix.network << 6) | prefix.length
        node = self._index.get(key)
        if node is not None:
            was_new = not node.has_value
            if was_new:
                node.prefix = prefix
                self._count += 1
            node.value = value
            node.has_value = True
            return was_new
        node = _Node(prefix.network, prefix.length, prefix)
        node.value = value
        node.has_value = True
        self._index[key] = node
        if self._root is None:
            self._root = node
        else:
            self._root = self._splice(self._root, node)
        self._count += 1
        return True

    def _splice(self, node: _Node, new: _Node) -> _Node:
        """Insert *new* (a leaf-to-be) into the subtree rooted at *node*,
        returning the subtree's new root. Iterative with the bit math
        inlined: churn benchmarks drive this millions of times."""
        top = parent = None
        parent_bit = 0
        new_network = new.network
        new_length = new.length
        while True:
            node_length = node.length
            limit = node_length if node_length < new_length else new_length
            diff = node.network ^ new_network
            if diff == 0:
                shared = limit
            else:
                shared = 32 - diff.bit_length()
                if shared > limit:
                    shared = limit
            if shared == node_length and shared < new_length:
                # New prefix extends below this node: descend.
                bit = (new_network >> (31 - node_length)) & 1
                child = node.right if bit else node.left
                if child is None:
                    if bit:
                        node.right = new
                    else:
                        node.left = new
                    break
                parent, parent_bit, node = node, bit, child
                if top is None:
                    top = parent
                continue
            if shared == new_length and shared < node_length:
                # New prefix is an ancestor of this node.
                if (node.network >> (31 - new_length)) & 1:
                    new.right = node
                else:
                    new.left = node
                replacement = new
            elif shared == node_length == new_length:
                # The slot is a branch node (branch nodes are not in
                # the index): store the entry on it and index it.
                node.prefix = new.prefix
                node.value, node.has_value = new.value, True
                self._index[(new.network << 6) | new.length] = node
                replacement = node
            else:
                # Diverge below ``shared`` bits: make a branch node.
                mask = (0xFFFFFFFF << (32 - shared)) & 0xFFFFFFFF if shared else 0
                branch = _Node(new_network & mask, shared)
                if (node.network >> (31 - shared)) & 1:
                    branch.right, branch.left = node, new
                else:
                    branch.left, branch.right = node, new
                replacement = branch
            if parent is None:
                return replacement
            if parent_bit:
                parent.right = replacement
            else:
                parent.left = replacement
            break
        return top if top is not None else node

    def remove(self, prefix: Prefix) -> bool:
        """Remove; returns True if the prefix was present.

        The node stays in the trie as a tombstone so a re-insert of the
        same prefix (the dominant churn pattern) is O(1).
        """
        node = self._index.get((prefix.network << 6) | prefix.length)
        if node is None or not node.has_value:
            return False
        node.value = None
        node.has_value = False
        self._count -= 1
        return True

    def clear(self) -> int:
        """Drop everything (session teardown); returns the entry count."""
        count = self._count
        self._root = None
        self._index.clear()
        self._count = 0
        return count

    # -- traversal ----------------------------------------------------------

    def items(self) -> "list[tuple[Prefix, Any]]":
        """All (prefix, value) pairs in ascending (network, length) order.

        A snapshot list: the caller may mutate the map while consuming it.
        """
        return self._live_below(self._root)

    @staticmethod
    def _live_below(node: "_Node | None") -> "list[tuple[Prefix, Any]]":
        """Live entries of the subtree at *node*: value first, then the
        left subtree, then the right (right is pushed first so it pops
        last) — ascending (network, length) order."""
        out: list[tuple[Prefix, Any]] = []
        stack = [node] if node is not None else []
        while stack:
            node = stack.pop()
            if node.has_value:
                out.append((node.prefix, node.value))
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)
        return out

    def keys(self) -> "list[Prefix]":
        return [prefix for prefix, _value in self.items()]

    def values(self) -> "list[Any]":
        return [value for _prefix, value in self.items()]

    def covered(self, prefix: Prefix) -> "list[tuple[Prefix, Any]]":
        """Entries whose prefix is covered by *prefix* (including an
        exact match), in iteration order — the aggregate-contributor
        query, answered from the covering subtree alone."""
        node = self._root
        mask = prefix.mask
        # Descend to the highest node inside the covered range.
        while node is not None and node.length < prefix.length:
            shared = _common_prefix_len(node.network, prefix.network, node.length)
            if shared < node.length:
                return []
            node = node.right if _bit(prefix.network, node.length) else node.left
        if node is None or (node.network & mask) != prefix.network:
            return []
        return self._live_below(node)
