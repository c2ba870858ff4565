"""Routing Information Bases (RFC 4271 §3.2).

Three structures, exactly as the paper describes them:

* :class:`AdjRibIn` — unprocessed routes learned from one neighbour;
* :class:`LocRib` — the routes selected by the local decision process;
* :class:`AdjRibOut` — the per-neighbour view to be advertised.

Every mutation returns an explicit :class:`RouteChange` so the caller
(the speaker, and through it the benchmark's cost model) knows whether
the forwarding table must change — the distinction on which benchmark
scenarios 5/6 versus 7/8 turn.

The RFC calls these RIBs conceptual, and all three are plain dicts
keyed by prefix: every per-UPDATE question is exact match. The walks —
session loss (Adj-RIB-In), the initial transfer and the quiescent
RIB/FIB check (Loc-RIB) — sort a snapshot in ascending
``(network, length)`` order, so their output never depends on arrival
order.

A packed UPDATE reaches Adj-RIB-In and Adj-RIB-Out as a *column*: each
``*_many`` method does what a loop of its per-prefix namesake does, in
one pass, and returns the prefixes whose entry moved as that loop would
report them — a prefix repeated in a sequence moves at most once, at
its first copy.
"""

from __future__ import annotations

from enum import Enum, auto
from itertools import compress, repeat
from operator import is_not
from typing import Iterator, NamedTuple, Sequence

from repro.bgp.attributes import PathAttributes
from repro.net.addr import Prefix


class RouteChange(Enum):
    """What a RIB mutation did."""

    ADDED = auto()      # new prefix installed
    REPLACED = auto()   # existing prefix now has different attributes/source
    UNCHANGED = auto()  # announcement identical to what is installed
    REMOVED = auto()    # prefix withdrawn
    ABSENT = auto()     # withdrawal for a prefix we never had


# Reading a member through the Enum class runs its metaclass's
# ``__getattr__`` hook (about 0.15 us a read on CPython 3.11), several
# times per prefix on the UPDATE path: that path reads these names.
ADDED, REPLACED, UNCHANGED, REMOVED, ABSENT = RouteChange


class RibRoute(NamedTuple):
    """A route as stored in the Loc-RIB: attributes plus learned-from peer.

    A named tuple rather than a frozen dataclass: the UPDATE path builds
    one per Loc-RIB write, and a tuple is built in a third of the time.
    """

    prefix: Prefix
    attributes: PathAttributes
    peer_id: str


class AdjRibIn:
    """Routes advertised to us by one neighbour, pre-policy."""

    def __init__(self, peer_id: str):
        self.peer_id = peer_id
        self._routes: dict[Prefix, PathAttributes] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def get(self, prefix: Prefix) -> PathAttributes | None:
        return self._routes.get(prefix)

    def get_many(self, prefixes: "Sequence[Prefix]") -> "Iterator[PathAttributes | None]":
        """``get`` of each prefix, in order (lazily: read it before the
        next write)."""
        return map(self._routes.get, prefixes)

    def update(self, prefix: Prefix, attributes: PathAttributes) -> RouteChange:
        """Install or replace the neighbour's route for *prefix*: a new
        announcement is an implicit withdraw of the old (RFC 4271 §3.1)."""
        existing = self._routes.get(prefix)
        # Interned attributes make the no-op re-announcement (the flap
        # workload's dominant case) an identity hit.
        if existing is not None and (existing is attributes or existing == attributes):
            return UNCHANGED
        self._routes[prefix] = attributes
        return ADDED if existing is None else REPLACED

    def update_many(
        self, prefixes: "Sequence[Prefix]", attributes: PathAttributes
    ) -> "list[Prefix]":
        """``[p for p in prefixes if update(p, attributes) is not UNCHANGED]``
        in one pass: the changed entries are found before any is
        written, and written with one ``dict.update``."""
        if len(prefixes) == 1:
            # A column of one (every topology UPDATE): the one-pass
            # iterators cost more than they save.
            return list(prefixes) if self.update(prefixes[0], attributes) is not UNCHANGED else []
        routes = self._routes
        changed = [
            prefix
            for prefix, existing in zip(prefixes, map(routes.get, prefixes))
            if existing is None or (existing is not attributes and existing != attributes)
        ]
        if not changed:
            return changed
        # Both copies of a repeated prefix read the entry before either
        # wrote it; the second is the no-op the loop would find.
        entries = dict.fromkeys(changed, attributes)
        routes.update(entries)
        return list(entries)

    def withdraw(self, prefix: Prefix) -> RouteChange:
        if self._routes.pop(prefix, None) is None:
            return ABSENT
        return REMOVED

    def withdraw_many(self, prefixes: "Sequence[Prefix]") -> "list[Prefix]":
        """``[p for p in prefixes if withdraw(p) is REMOVED]``."""
        if len(prefixes) == 1:
            return list(prefixes) if self.withdraw(prefixes[0]) is REMOVED else []
        popped = map(self._routes.pop, prefixes, repeat(None))
        return list(compress(prefixes, map(is_not, popped, repeat(None))))

    def clear(self) -> int:
        """Drop all routes (session teardown); returns how many were dropped."""
        count = len(self._routes)
        self._routes.clear()
        return count

    def prefixes(self) -> Iterator[Prefix]:
        """Snapshot iterator over prefixes in (network, length) order."""
        return iter(sorted(self._routes))

    def items(self) -> Iterator[tuple[Prefix, PathAttributes]]:
        """Snapshot iterator over (prefix, attributes) in (network, length) order."""
        routes = self._routes
        return iter([(p, routes[p]) for p in sorted(routes)])


class LocRib:
    """The locally selected best routes."""

    def __init__(self) -> None:
        self._routes: dict[Prefix, RibRoute] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def get(self, prefix: Prefix) -> RibRoute | None:
        return self._routes.get(prefix)

    def set_best(self, route: RibRoute) -> RouteChange:
        existing = self._routes.get(route.prefix)
        if existing is not None and (existing is route or existing == route):
            return UNCHANGED
        self._routes[route.prefix] = route
        return ADDED if existing is None else REPLACED

    def remove(self, prefix: Prefix) -> RouteChange:
        if self._routes.pop(prefix, None) is None:
            return ABSENT
        return REMOVED

    def _sorted(self) -> "list[RibRoute]":
        routes = self._routes
        return [routes[p] for p in sorted(routes)]

    def routes(self) -> Iterator[RibRoute]:
        """Snapshot iterator over routes in (network, length) order."""
        return iter(self._sorted())

    def prefixes(self) -> Iterator[Prefix]:
        """Snapshot iterator over prefixes in (network, length) order."""
        return iter(sorted(self._routes))

    def covered(self, aggregate: Prefix) -> "list[RibRoute]":
        """Routes whose prefix falls inside *aggregate* (exact match
        included), in (network, length) order. Nothing in the speaker
        asks this; ``benchmarks/ledger/probes.py`` names it, so it stays
        until that probe list drops it."""
        routes = self._routes
        return [routes[p] for p in sorted(filter(aggregate.covers, routes))]

    def fib_view(self) -> "list[tuple[Prefix, object]]":
        """Deterministic (prefix, next_hop) snapshot in (network, length)
        order — the view the simulation sanitizer diffs against the FIB
        after quiescence (RIB/FIB agreement invariant)."""
        return [(route.prefix, route.attributes.next_hop) for route in self._sorted()]


class AdjRibOut:
    """The subset of the Loc-RIB advertised to one neighbour.

    :meth:`stage` records the desired state; :meth:`take_pending`
    extracts the delta accumulated since the last call, which the
    speaker packs into UPDATEs in staging order — how real
    implementations batch output.
    """

    def __init__(self, peer_id: str):
        self.peer_id = peer_id
        self._advertised: dict[Prefix, PathAttributes] = {}
        self._pending_announce: dict[Prefix, PathAttributes] = {}
        self._pending_withdraw: set[Prefix] = set()

    def __len__(self) -> int:
        return len(self._advertised)

    def advertised(self, prefix: Prefix) -> PathAttributes | None:
        return self._advertised.get(prefix)

    def stage(self, prefix: Prefix, attributes: PathAttributes) -> RouteChange:
        # Never both advertised and pending withdrawal (stage_withdraw).
        existing = self._advertised.get(prefix)
        if existing is not None and (existing is attributes or existing == attributes):
            return UNCHANGED
        self._advertised[prefix] = attributes
        self._pending_announce[prefix] = attributes
        self._pending_withdraw.discard(prefix)
        return ADDED if existing is None else REPLACED

    def stage_many(self, routes: "dict[Prefix, PathAttributes]") -> "list[Prefix]":
        """``[p for p, a in routes.items() if stage(p, a) is not UNCHANGED]``,
        each dict written once."""
        advertised = self._advertised
        moved = [
            prefix
            for (prefix, attributes), existing in zip(routes.items(), map(advertised.get, routes))
            if existing is None or (existing is not attributes and existing != attributes)
        ]
        if not moved:
            return moved
        if len(moved) < len(routes):
            routes = {prefix: routes[prefix] for prefix in moved}
        advertised.update(routes)
        self._pending_announce.update(routes)
        if self._pending_withdraw:
            self._pending_withdraw.difference_update(moved)
        return moved

    def stage_withdraw(self, prefix: Prefix) -> RouteChange:
        self._pending_announce.pop(prefix, None)
        if self._advertised.pop(prefix, None) is None:
            return ABSENT
        self._pending_withdraw.add(prefix)
        return REMOVED

    def stage_withdraw_many(self, prefixes: "Sequence[Prefix]") -> "list[Prefix]":
        """``[p for p in prefixes if stage_withdraw(p) is REMOVED]``."""
        pending = self._pending_announce
        if pending:
            for prefix in prefixes:
                pending.pop(prefix, None)
        popped = map(self._advertised.pop, prefixes, repeat(None))
        removed = list(compress(prefixes, map(is_not, popped, repeat(None))))
        if removed:
            self._pending_withdraw.update(removed)
        return removed

    def has_pending(self) -> bool:
        return bool(self._pending_announce or self._pending_withdraw)

    def pending_counts(self) -> tuple[int, int]:
        """(staged announcements, staged withdrawals) not yet flushed —
        the in-flight term of the sanitizer's conservation accounting."""
        return len(self._pending_announce), len(self._pending_withdraw)

    def pending(self) -> tuple[dict[Prefix, PathAttributes], set[Prefix]]:
        """(announcements, withdrawals) staged so far, left in place —
        what :meth:`take_pending` will return; read, do not mutate."""
        return self._pending_announce, self._pending_withdraw

    def take_pending(self) -> tuple[dict[Prefix, PathAttributes], set[Prefix]]:
        """Return and clear (announcements, withdrawals) staged so far."""
        announce, withdraw = self._pending_announce, self._pending_withdraw
        self._pending_announce, self._pending_withdraw = {}, set()
        return announce, withdraw

    def clear(self) -> None:
        """Session loss: forget what the peer was sent and is owed, so a
        new session starts with the full initial transfer."""
        self._advertised.clear()
        self._pending_announce, self._pending_withdraw = {}, set()
