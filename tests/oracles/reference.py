"""Reference RIB implementations: the original dict-backed structures.

These are the pre-trie ``rib.py`` classes, retained verbatim in
behaviour and upgraded only where the public contract changed: all
iteration is a sorted ``(network, length)`` snapshot, matching what the
trie-backed RIBs now guarantee. They are a differential oracle:
``tests/test_perf_rib_differential.py`` replays seeded random operation
sequences against both implementations and asserts identical
:class:`~repro.bgp.rib.RouteChange` results, lengths, and iteration
order. The 3.8x churn ratio once re-timed against them on every
``bgpbench perf`` run is recorded in ``benchmarks/BENCH_8.json``.
"""

from __future__ import annotations

from typing import Iterator

from repro.bgp.attributes import PathAttributes
from repro.bgp.rib import RibRoute, RouteChange
from repro.net.addr import Prefix

__all__ = ["DictAdjRibIn", "DictLocRib", "DictAdjRibOut"]


def _sorted_prefixes(prefixes) -> "list[Prefix]":
    return sorted(prefixes, key=lambda p: (p.network, p.length))


class DictAdjRibIn:
    """Dict-backed Adj-RIB-In, iteration sorted to the shared contract."""

    def __init__(self, peer_id: str):
        self.peer_id = peer_id
        self._routes: dict[Prefix, PathAttributes] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def get(self, prefix: Prefix) -> PathAttributes | None:
        return self._routes.get(prefix)

    def update(self, prefix: Prefix, attributes: PathAttributes) -> RouteChange:
        existing = self._routes.get(prefix)
        if existing == attributes:
            return RouteChange.UNCHANGED
        self._routes[prefix] = attributes
        return RouteChange.ADDED if existing is None else RouteChange.REPLACED

    def withdraw(self, prefix: Prefix) -> RouteChange:
        if self._routes.pop(prefix, None) is None:
            return RouteChange.ABSENT
        return RouteChange.REMOVED

    def clear(self) -> int:
        count = len(self._routes)
        self._routes.clear()
        return count

    def prefixes(self) -> Iterator[Prefix]:
        return iter(_sorted_prefixes(self._routes))

    def items(self) -> Iterator[tuple[Prefix, PathAttributes]]:
        routes = self._routes
        return iter([(p, routes[p]) for p in _sorted_prefixes(routes)])


class DictLocRib:
    """Dict-backed Loc-RIB, iteration sorted to the shared contract."""

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
        if existing == route:
            return RouteChange.UNCHANGED
        self._routes[route.prefix] = route
        return RouteChange.ADDED if existing is None else RouteChange.REPLACED

    def remove(self, prefix: Prefix) -> RouteChange:
        if self._routes.pop(prefix, None) is None:
            return RouteChange.ABSENT
        return RouteChange.REMOVED

    def routes(self) -> Iterator[RibRoute]:
        routes = self._routes
        return iter([routes[p] for p in _sorted_prefixes(routes)])

    def prefixes(self) -> Iterator[Prefix]:
        return iter(_sorted_prefixes(self._routes))

    def covered(self, aggregate: Prefix) -> "list[RibRoute]":
        # Scan-then-sort-the-result: the scan is what the legacy
        # aggregate-contributor query cost; only the (small) answer is
        # sorted to meet the shared iteration-order contract.
        selected = [p for p in self._routes if aggregate.covers(p)]
        selected.sort(key=lambda p: (p.network, p.length))
        routes = self._routes
        return [routes[p] for p in selected]

    def fib_view(self) -> "list[tuple[Prefix, object]]":
        return sorted(
            (route.prefix, route.attributes.next_hop)
            for route in self._routes.values()
        )


class DictAdjRibOut:
    """Dict-backed Adj-RIB-Out with the identical staging contract."""

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
        existing = self._advertised.get(prefix)
        if existing == attributes and prefix not in self._pending_withdraw:
            return RouteChange.UNCHANGED
        self._advertised[prefix] = attributes
        self._pending_announce[prefix] = attributes
        self._pending_withdraw.discard(prefix)
        return RouteChange.ADDED if existing is None else RouteChange.REPLACED

    def stage_withdraw(self, prefix: Prefix) -> RouteChange:
        if self._advertised.pop(prefix, None) is None:
            self._pending_announce.pop(prefix, None)
            return RouteChange.ABSENT
        self._pending_announce.pop(prefix, None)
        self._pending_withdraw.add(prefix)
        return RouteChange.REMOVED

    def has_pending(self) -> bool:
        return bool(self._pending_announce or self._pending_withdraw)

    def pending_counts(self) -> tuple[int, int]:
        return len(self._pending_announce), len(self._pending_withdraw)

    def take_pending(self) -> tuple[dict[Prefix, PathAttributes], set[Prefix]]:
        announce, withdraw = self._pending_announce, self._pending_withdraw
        self._pending_announce = {}
        self._pending_withdraw = set()
        return announce, withdraw
