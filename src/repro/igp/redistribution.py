"""IGP → BGP route redistribution.

Real routers couple the two routing layers this module's substrates
implement: prefixes reachable through the IGP are originated into BGP,
and the IGP metric is carried as BGP's MULTI_EXIT_DISC so neighbouring
ASes can prefer the closer entry point ("cold-potato" routing). This is
also the mechanism behind the paper's Phase-1 workload — the tables a
BGP speaker announces ultimately come from somewhere, usually an IGP.

:class:`Redistributor` diffs an IGP routing table against what it
previously originated into a :class:`~repro.bgp.speaker.BgpSpeaker` and
applies the changes (originate new, withdraw gone, update MED on cost
change). It is protocol-agnostic: anything that yields
``{destination_router: (cost, next_hop_router)}`` works — both
:class:`~repro.igp.ospf.OspfRouter` and :class:`~repro.igp.rip.RipRouter`
tables do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.attributes import Origin, PathAttributes
from repro.bgp.speaker import BgpSpeaker
from repro.net.addr import IPv4Address, Prefix


@dataclass(frozen=True, slots=True)
class IgpSite:
    """One IGP router's externally visible identity: the prefixes it
    connects and its address (used as the BGP next hop)."""

    address: IPv4Address
    prefixes: tuple[Prefix, ...] = ()


class Redistributor:
    """Keeps a BGP speaker's locally originated routes in sync with an
    IGP routing table."""

    def __init__(self, speaker: BgpSpeaker, sites: "dict[str, IgpSite]",
                 local_router: str):
        """*sites* maps IGP router names to their site description;
        *local_router* is the name of the router this speaker runs on
        (its own site's prefixes are originated with cost 0)."""
        if local_router not in sites:
            raise ValueError(f"local router {local_router!r} not in sites")
        self.speaker = speaker
        self.sites = sites
        self.local_router = local_router
        self._originated: dict[Prefix, int] = {}  # prefix -> MED
        self.syncs = 0

    def desired_routes(
        self, igp_table: "dict[str, tuple[float, str]]"
    ) -> dict[Prefix, tuple[int, IPv4Address]]:
        """The prefix set the speaker should originate given the IGP
        view: {prefix: (med, next_hop_address)}."""
        desired: dict[Prefix, tuple[int, IPv4Address]] = {}
        for prefix in self.sites[self.local_router].prefixes:
            desired[prefix] = (0, self.sites[self.local_router].address)
        for destination, (cost, first_hop) in igp_table.items():
            site = self.sites.get(destination)
            if site is None:
                continue
            hop_site = self.sites.get(first_hop)
            next_hop = hop_site.address if hop_site else site.address
            for prefix in site.prefixes:
                desired[prefix] = (int(round(cost)), next_hop)
        return desired

    def sync(self, igp_table: "dict[str, tuple[float, str]]") -> dict[str, int]:
        """Apply the diff; returns {'originated': n, 'withdrawn': n,
        'updated': n}."""
        self.syncs += 1
        desired = self.desired_routes(igp_table)
        originated = withdrawn = updated = 0

        for prefix in list(self._originated):
            if prefix not in desired:
                self.speaker.withdraw_local(prefix)
                del self._originated[prefix]
                withdrawn += 1

        for prefix, (med, next_hop) in desired.items():
            known_med = self._originated.get(prefix)
            if known_med is None:
                action = "originate"
                originated += 1
            elif known_med != med:
                action = "update"
                updated += 1
            else:
                continue
            self.speaker.originate(
                prefix,
                PathAttributes(
                    origin=Origin.IGP,
                    next_hop=next_hop,
                    med=med,
                ),
            )
            self._originated[prefix] = med
        return {"originated": originated, "withdrawn": withdrawn, "updated": updated}


def rip_table_view(router) -> "dict[str, tuple[float, str]]":
    """Adapt a :class:`~repro.igp.rip.RipRouter` table to the
    redistributor's {destination: (cost, next_hop)} shape."""
    view = {}
    for destination, entry in router.table.items():
        if destination == router.name or entry.metric >= 16:
            continue
        view[destination] = (float(entry.metric), entry.next_hop)
    return view
