"""Routing Information Bases (RFC 4271 §3.2).

Three structures, exactly as the paper describes them:

* :class:`AdjRibIn` — unprocessed routes learned from one neighbour;
* :class:`LocRib` — the routes selected by the local decision process;
* :class:`AdjRibOut` — the per-neighbour view to be advertised.

Every mutation returns an explicit :class:`RouteChange` so the caller
(the speaker, and through it the benchmark's cost model) knows whether
the forwarding table must change — the distinction on which benchmark
scenarios 5/6 versus 7/8 turn.

All three are backed by :class:`repro.net.trie.PrefixTrieMap`, an
indexed patricia trie: per-UPDATE operations are one packed-int dict
probe, withdrawn prefixes tombstone in place so churn re-adds are O(1),
and iteration is a deterministic ascending ``(network, length)``
snapshot — safe to consume while the speaker keeps mutating.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Iterator

from repro.bgp.attributes import PathAttributes
from repro.net.addr import Prefix
from repro.net.trie import PrefixTrieMap


class RouteChange(Enum):
    """What a RIB mutation did."""

    ADDED = auto()      # new prefix installed
    REPLACED = auto()   # existing prefix now has different attributes/source
    UNCHANGED = auto()  # announcement identical to what is installed
    REMOVED = auto()    # prefix withdrawn
    ABSENT = auto()     # withdrawal for a prefix we never had


@dataclass(frozen=True, slots=True)
class RibRoute:
    """A route as stored in the Loc-RIB: attributes plus learned-from peer."""

    prefix: Prefix
    attributes: PathAttributes
    peer_id: str


class AdjRibIn:
    """Routes advertised to us by one neighbour, pre-policy."""

    def __init__(self, peer_id: str):
        self.peer_id = peer_id
        self._routes = PrefixTrieMap()
        # Hot-path alias: the trie's exact-match index is one dict that
        # is mutated in place but never rebound, so the bound ``get``
        # stays valid for the RIB's lifetime. Probing it directly makes
        # the per-UPDATE fast path a single small-int dict lookup with
        # no intervening method calls.
        self._node_get = self._routes._index.get

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._node_get((prefix.network << 6) | prefix.length)
        return node is not None and node.has_value

    def get(self, prefix: Prefix) -> PathAttributes | None:
        node = self._node_get((prefix.network << 6) | prefix.length)
        if node is not None and node.has_value:
            return node.value
        return None

    def update(self, prefix: Prefix, attributes: PathAttributes) -> RouteChange:
        """Install or replace the neighbour's route for *prefix*.

        An implicit withdraw (RFC 4271 §3.1): a new announcement for a
        prefix replaces the previous one from the same neighbour.
        """
        routes = self._routes
        node = self._node_get((prefix.network << 6) | prefix.length)
        if node is not None:
            if node.has_value:
                existing = node.value
                # Interned attributes make the no-op re-announcement
                # (the flap workload's dominant case) an identity hit
                # before the field-by-field comparison runs.
                if existing is attributes or existing == attributes:
                    return RouteChange.UNCHANGED
                node.value = attributes
                return RouteChange.REPLACED
            # Tombstone left by a withdrawal: revive in place.
            node.prefix = prefix
            node.value = attributes
            node.has_value = True
            routes._count += 1
            return RouteChange.ADDED
        routes.insert(prefix, attributes)
        return RouteChange.ADDED

    def withdraw(self, prefix: Prefix) -> RouteChange:
        node = self._node_get((prefix.network << 6) | prefix.length)
        if node is None or not node.has_value:
            return RouteChange.ABSENT
        node.value = None
        node.has_value = False
        self._routes._count -= 1
        return RouteChange.REMOVED

    def clear(self) -> int:
        """Drop all routes (session teardown); returns how many were dropped."""
        return self._routes.clear()

    def prefixes(self) -> Iterator[Prefix]:
        """Snapshot iterator over prefixes in (network, length) order."""
        return iter(self._routes.keys())

    def items(self) -> Iterator[tuple[Prefix, PathAttributes]]:
        """Snapshot iterator over (prefix, attributes) in (network, length) order."""
        return iter(self._routes.items())


class LocRib:
    """The locally selected best routes."""

    def __init__(self) -> None:
        self._routes = PrefixTrieMap()
        # Same hot-path alias as AdjRibIn: _index is mutated in place,
        # never rebound.
        self._node_get = self._routes._index.get

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._node_get((prefix.network << 6) | prefix.length)
        return node is not None and node.has_value

    def get(self, prefix: Prefix) -> RibRoute | None:
        node = self._node_get((prefix.network << 6) | prefix.length)
        if node is not None and node.has_value:
            return node.value
        return None

    def set_best(self, route: RibRoute) -> RouteChange:
        prefix = route.prefix
        node = self._node_get((prefix.network << 6) | prefix.length)
        if node is not None:
            if node.has_value:
                existing = node.value
                if existing is route or existing == route:
                    return RouteChange.UNCHANGED
                node.value = route
                return RouteChange.REPLACED
            node.prefix = prefix
            node.value = route
            node.has_value = True
            self._routes._count += 1
            return RouteChange.ADDED
        self._routes.insert(prefix, route)
        return RouteChange.ADDED

    def remove(self, prefix: Prefix) -> RouteChange:
        node = self._node_get((prefix.network << 6) | prefix.length)
        if node is None or not node.has_value:
            return RouteChange.ABSENT
        node.value = None
        node.has_value = False
        self._routes._count -= 1
        return RouteChange.REMOVED

    def routes(self) -> Iterator[RibRoute]:
        """Snapshot iterator over routes in (network, length) order."""
        return iter(self._routes.values())

    def prefixes(self) -> Iterator[Prefix]:
        """Snapshot iterator over prefixes in (network, length) order."""
        return iter(self._routes.keys())

    def covered(self, aggregate: Prefix) -> "list[RibRoute]":
        """Routes whose prefix falls inside *aggregate* (exact match
        included), in iteration order — answered from the covering
        subtree alone, which is what makes aggregation scale."""
        return [route for _prefix, route in self._routes.covered(aggregate)]

    def fib_view(self) -> "list[tuple[Prefix, object]]":
        """Deterministic (prefix, next_hop) snapshot, sorted by prefix —
        the view the simulation sanitizer diffs against the FIB after
        quiescence (RIB/FIB agreement invariant). Trie iteration order
        is already the sort order, so this is a single pass."""
        return [
            (route.prefix, route.attributes.next_hop)
            for route in self._routes.values()
        ]


class AdjRibOut:
    """The subset of the Loc-RIB advertised to one neighbour.

    :meth:`stage` records the desired state; :meth:`take_pending`
    extracts the delta (announcements and withdrawals) accumulated since
    the last call, which the speaker packs into UPDATE messages. This
    mirrors how real implementations batch output.
    """

    def __init__(self, peer_id: str):
        self.peer_id = peer_id
        self._advertised = PrefixTrieMap()
        self._node_get = self._advertised._index.get
        self._pending_announce: dict[Prefix, PathAttributes] = {}
        self._pending_withdraw: set[Prefix] = set()

    def __len__(self) -> int:
        return len(self._advertised)

    def advertised(self, prefix: Prefix) -> PathAttributes | None:
        node = self._node_get((prefix.network << 6) | prefix.length)
        if node is not None and node.has_value:
            return node.value
        return None

    def stage(self, prefix: Prefix, attributes: PathAttributes) -> RouteChange:
        node = self._node_get((prefix.network << 6) | prefix.length)
        if node is not None and node.has_value:
            existing = node.value
            if (
                existing is attributes or existing == attributes
            ) and prefix not in self._pending_withdraw:
                return RouteChange.UNCHANGED
            node.value = attributes
            change = RouteChange.REPLACED
        else:
            self._advertised.insert(prefix, attributes)
            change = RouteChange.ADDED
        self._pending_announce[prefix] = attributes
        self._pending_withdraw.discard(prefix)
        return change

    def stage_withdraw(self, prefix: Prefix) -> RouteChange:
        self._pending_announce.pop(prefix, None)
        if not self._advertised.remove(prefix):
            return RouteChange.ABSENT
        self._pending_withdraw.add(prefix)
        return RouteChange.REMOVED

    def has_pending(self) -> bool:
        return bool(self._pending_announce or self._pending_withdraw)

    def pending_counts(self) -> tuple[int, int]:
        """(staged announcements, staged withdrawals) not yet flushed —
        the in-flight term of the sanitizer's conservation accounting."""
        return len(self._pending_announce), len(self._pending_withdraw)

    def take_pending(self) -> tuple[dict[Prefix, PathAttributes], set[Prefix]]:
        """Return and clear (announcements, withdrawals) staged so far."""
        announce, withdraw = self._pending_announce, self._pending_withdraw
        self._pending_announce = {}
        self._pending_withdraw = set()
        return announce, withdraw

    def clear(self) -> None:
        """Session loss: forget what the peer was sent and is owed, so a
        new session starts with the full initial transfer."""
        self._advertised.clear()
        self._pending_announce = {}
        self._pending_withdraw = set()
