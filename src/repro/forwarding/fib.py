"""The Forwarding Information Base.

The FIB is the kernel-side (or line-card-side) copy of the selected
routes. It implements the :class:`repro.bgp.speaker.FibSink` protocol so
a :class:`~repro.bgp.speaker.BgpSpeaker` pushes Loc-RIB changes straight
into it. The paper charges the FIB for installing routes — the add,
replace and delete work behind scenarios 5–8 ("changing the forwarding
tables involves a large amount of other operations"), billed by the
platform cost models through ``WorkLog.fib_adds/replaces/deletes`` — and
measures no lookup rate. So the routes are one ``{prefix: next_hop}``
dict: a change is a dict store, and :meth:`Fib.lookup` probes that dict
once per prefix length, longest first.
"""

from __future__ import annotations

from repro.net.addr import IPv4Address, Prefix, address_int

#: (length, mask) from /32 down to /0: the longest-prefix-match probe order.
_PROBES = tuple(
    (length, (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF)
    for length in range(32, -1, -1)
)


class Fib:
    """A next-hop table: one dict from prefix to next hop."""

    def __init__(self) -> None:
        self._routes: dict[Prefix, IPv4Address] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    # -- FibSink protocol ---------------------------------------------------

    def add_route(self, prefix: Prefix, next_hop: IPv4Address) -> None:
        self._routes[prefix] = next_hop

    def replace_route(self, prefix: Prefix, next_hop: IPv4Address) -> None:
        self._routes[prefix] = next_hop

    def delete_route(self, prefix: Prefix) -> None:
        self._routes.pop(prefix, None)

    # -- lookup ----------------------------------------------------------------

    def lookup(self, destination: IPv4Address | int) -> IPv4Address | None:
        """Longest-prefix-match next hop for *destination*; None = no route."""
        value = address_int(destination)
        routes = self._routes
        for length, mask in _PROBES:
            # A Prefix hashes and compares equal to its plain tuple.
            next_hop = routes.get((value & mask, length))
            if next_hop is not None:
                return next_hop
        return None

    def next_hop_for(self, prefix: Prefix) -> IPv4Address | None:
        """The exact-match next hop for an installed prefix."""
        return self._routes.get(prefix)

    def routes(self) -> "list[tuple[Prefix, IPv4Address]]":
        """All (prefix, next_hop) pairs, a snapshot in ascending
        (network, length) order."""
        return sorted(self._routes.items())
