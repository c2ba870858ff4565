"""The BGP decision process (RFC 4271 §9.1).

Given the candidate routes for a prefix from all Adj-RIBs-In (after
import policy), pick the most preferred. The tie-breaking chain is the
one most vendors implement, as the paper notes: LOCAL_PREF, then AS-path
length, then origin, then MED, then eBGP over iBGP, then lowest BGP
identifier, then lowest peer address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.bgp.attributes import PathAttributes
from repro.net.addr import IPv4Address


@dataclass(frozen=True, slots=True)
class PeerInfo:
    """What the decision process needs to know about a route's source."""

    peer_id: str
    asn: int
    address: IPv4Address
    bgp_identifier: IPv4Address
    is_ebgp: bool = True


class Candidate(NamedTuple):
    """One candidate route for a prefix (a tuple: one is built per
    candidate on every decision no per-UPDATE memo covers)."""

    attributes: PathAttributes
    peer: PeerInfo


class DecisionProcess:
    """Phase-2 route selection over a set of candidates.

    ``comparisons`` counts pairwise preference evaluations — the work
    metric the simulated CPU cost model charges for.
    """

    def __init__(self) -> None:
        self.comparisons = 0

    def prefer(self, a: Candidate, b: Candidate) -> Candidate:
        """Return the more preferred of two candidates, applying the
        RFC 4271 §9.1.2.2 criteria in sequence. Each criterion is read
        once per candidate, and only when every earlier one tied. MED is
        compared only between routes from the same neighbour AS
        (§9.1.2.2(c))."""
        self.comparisons += 1
        attrs_a, attrs_b = a.attributes, b.attributes
        pref_a, pref_b = attrs_a.effective_local_pref(), attrs_b.effective_local_pref()
        if pref_a != pref_b:
            return a if pref_a > pref_b else b
        length_a, length_b = attrs_a.as_path.length(), attrs_b.as_path.length()
        if length_a != length_b:
            return a if length_a < length_b else b
        if attrs_a.origin != attrs_b.origin:
            return a if attrs_a.origin < attrs_b.origin else b
        if attrs_a.as_path.first_as() == attrs_b.as_path.first_as():
            med_a, med_b = attrs_a.effective_med(), attrs_b.effective_med()
            if med_a != med_b:
                return a if med_a < med_b else b
        if a.peer.is_ebgp != b.peer.is_ebgp:
            return a if a.peer.is_ebgp else b
        # Addresses compare as their ints: IPv4Address's order, without
        # its comparison methods (a tie this deep is common in an AS graph).
        id_a, id_b = a.peer.bgp_identifier.value, b.peer.bgp_identifier.value
        if id_a != id_b:
            return a if id_a < id_b else b
        return a if a.peer.address.value <= b.peer.address.value else b

    def select(self, candidates: "list[Candidate]") -> Candidate | None:
        """Select the best route; ``None`` when there are no candidates."""
        best: Candidate | None = None
        for candidate in candidates:
            if candidate.attributes.next_hop is None:
                continue  # unresolvable routes are ineligible (§9.1.2.1)
            best = candidate if best is None else self.prefer(best, candidate)
        return best
