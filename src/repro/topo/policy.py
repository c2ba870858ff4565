"""Gao–Rexford valley-free policies compiled to ``repro.bgp.policy``.

:mod:`repro.workload.astopo` models AS relationships abstractly; this
module compiles them into the *actual* per-peer import/export filter
chains a live :class:`~repro.bgp.speaker.BgpSpeaker` runs, so valley-free
propagation emerges from real policy evaluation rather than being wired
into the simulator:

* **import** — a route learned from a neighbour is tagged with a
  community naming the relationship class and given the conventional
  LOCAL_PREF ladder (customer 100 > peer 90 > provider 80), so the
  decision process itself prefers customer routes;
* **export** — routes tagged peer- or provider-learned are rejected
  toward peers and providers; everything is exported to customers.
  Locally originated routes carry no tag and export everywhere.

Tags live in the private community space ``64512:*`` and are stripped
on import before the local tag is applied, so a tag never leaks more
than one AS hop — each AS re-classifies every route it accepts.
"""

from __future__ import annotations

from repro.bgp.policy import Action, Match, Policy, PolicyResult, Rule
from repro.workload.astopo import Relationship

#: Relationship-class communities (private ASN 64512, RFC 1997 layout).
TAG_CUSTOMER = (64512 << 16) | 1
TAG_PEER = (64512 << 16) | 2
TAG_PROVIDER = (64512 << 16) | 3

#: The conventional LOCAL_PREF ladder: prefer customer > peer > provider.
LOCAL_PREF_CUSTOMER = 100
LOCAL_PREF_PEER = 90
LOCAL_PREF_PROVIDER = 80

_IMPORT = {
    Relationship.CUSTOMER: (TAG_CUSTOMER, LOCAL_PREF_CUSTOMER),
    Relationship.PEER: (TAG_PEER, LOCAL_PREF_PEER),
    Relationship.PROVIDER: (TAG_PROVIDER, LOCAL_PREF_PROVIDER),
}


def import_policy(relationship: Relationship) -> Policy:
    """The import chain for routes learned from a *relationship* peer.

    One accept-all term that strips any upstream tag, applies this AS's
    own classification community, and sets the preference rung. A fresh
    :class:`Policy` per call, with its own verdict memo — a harness
    compiles one per relationship and shares it across its peerings.
    """
    tag, local_pref = _IMPORT[relationship]
    return Policy(
        [
            Rule(
                match=Match(),
                result=PolicyResult.ACCEPT,
                action=Action(
                    set_local_pref=local_pref,
                    strip_communities=True,
                    add_community=tag,
                ),
                name=f"classify-{relationship.value}",
            )
        ],
        name=f"gao-rexford-import-{relationship.value}",
    )


def export_policy(relationship: Relationship) -> Policy:
    """The export chain toward a *relationship* peer.

    Toward customers everything is exported. Toward peers and providers
    only customer-learned and locally originated routes pass: two
    reject terms drop anything tagged peer- or provider-learned — the
    valley-free export rule as a first-match chain.
    """
    if relationship is Relationship.CUSTOMER:
        return Policy(name="gao-rexford-export-customer")
    return Policy(
        [
            Rule(
                match=Match(community=TAG_PEER),
                result=PolicyResult.REJECT,
                name="no-peer-routes-upstream",
            ),
            Rule(
                match=Match(community=TAG_PROVIDER),
                result=PolicyResult.REJECT,
                name="no-provider-routes-upstream",
            ),
        ],
        name=f"gao-rexford-export-{relationship.value}",
    )
