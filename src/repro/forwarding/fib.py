"""The Forwarding Information Base.

The FIB is the kernel-side (or line-card-side) copy of the selected
routes. It implements the :class:`repro.bgp.speaker.FibSink` protocol so
a :class:`~repro.bgp.speaker.BgpSpeaker` pushes Loc-RIB changes straight
into it, and exposes the longest-prefix-match lookup the forwarding
pipeline uses. Mutation counters feed the platform cost models: the
paper attributes the slowness of scenarios 1–4 and 7–8 to exactly these
operations ("changing the forwarding tables involves a large amount of
other operations").

Routes live in a :class:`~repro.forwarding.lengthsearch.LengthSearchTable`:
an add, replace or delete is a dict store, and the hash-per-length
search structure is rebuilt on the first lookup after a change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.forwarding.lengthsearch import LengthSearchTable
from repro.net.addr import IPv4Address, Prefix


@dataclass(slots=True)
class FibStats:
    """Counters over the FIB's lifetime."""

    adds: int = 0
    replaces: int = 0
    deletes: int = 0
    lookups: int = 0
    lookup_misses: int = 0

    @property
    def changes(self) -> int:
        return self.adds + self.replaces + self.deletes


class Fib:
    """A next-hop table over binary search on prefix lengths."""

    def __init__(self) -> None:
        self._table = LengthSearchTable()
        self.stats = FibStats()

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._table

    # -- FibSink protocol ---------------------------------------------------

    def add_route(self, prefix: Prefix, next_hop: IPv4Address) -> None:
        self._table.insert(prefix, next_hop)
        self.stats.adds += 1

    def replace_route(self, prefix: Prefix, next_hop: IPv4Address) -> None:
        self._table.insert(prefix, next_hop)
        self.stats.replaces += 1

    def delete_route(self, prefix: Prefix) -> None:
        self._table.remove(prefix)
        self.stats.deletes += 1

    # -- lookup ----------------------------------------------------------------

    def lookup(self, destination: IPv4Address | int) -> IPv4Address | None:
        """Longest-prefix-match next hop for *destination*; None = no route."""
        match = self._table.lookup(destination)
        self.stats.lookups += 1
        if match is None:
            self.stats.lookup_misses += 1
            return None
        return match[1]

    def next_hop_for(self, prefix: Prefix) -> IPv4Address | None:
        """The exact-match next hop for an installed prefix."""
        return self._table.exact(prefix)

    def routes(self) -> "list[tuple[Prefix, IPv4Address]]":
        """All (prefix, next_hop) pairs, a snapshot in ascending
        (network, length) order."""
        return list(self._table.items())
