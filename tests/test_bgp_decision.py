"""Unit tests for the decision process, one tie-break level at a time."""

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.decision import Candidate, DecisionProcess, PeerInfo
from repro.net.addr import IPv4Address

NH1 = IPv4Address.parse("10.0.1.1")
NH2 = IPv4Address.parse("10.0.2.1")


def peer(peer_id="p1", asn=65001, addr="10.0.1.1", bgp_id="1.1.1.1", ebgp=True):
    return PeerInfo(peer_id, asn, IPv4Address.parse(addr), IPv4Address.parse(bgp_id), ebgp)


def candidate(
    local_pref=None,
    path=(65001,),
    origin=Origin.IGP,
    med=None,
    next_hop=NH1,
    **peer_kwargs,
):
    attrs = PathAttributes(
        origin=origin,
        as_path=AsPath.from_asns(list(path)),
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
    )
    return Candidate(attrs, peer(**peer_kwargs))


class TestTieBreakLevels:
    def test_higher_local_pref_wins(self):
        a = candidate(local_pref=200, path=(1, 2, 3, 4))
        b = candidate(local_pref=100, path=(1,))
        assert DecisionProcess().select([a, b]) is a

    def test_missing_local_pref_defaults_to_100(self):
        a = candidate(local_pref=None)
        b = candidate(local_pref=150, path=(1, 2))
        assert DecisionProcess().select([a, b]) is b

    def test_shorter_as_path_wins(self):
        a = candidate(path=(1, 2))
        b = candidate(path=(1, 2, 3))
        assert DecisionProcess().select([a, b]) is a

    def test_origin_breaks_path_tie(self):
        a = candidate(path=(1, 2), origin=Origin.IGP)
        b = candidate(path=(3, 4), origin=Origin.EGP)
        c = candidate(path=(5, 6), origin=Origin.INCOMPLETE)
        assert DecisionProcess().select([c, b, a]) is a

    def test_med_compared_within_same_neighbor_as(self):
        # Same first AS: lower MED wins.
        a = candidate(path=(7, 2), med=10)
        b = candidate(path=(7, 3), med=5)
        assert DecisionProcess().select([a, b]) is b

    def test_med_ignored_across_different_neighbor_as(self):
        # Different first AS: MED must not decide; falls through to
        # eBGP/router-id, so construct a case where MED would invert it.
        a = candidate(path=(7, 2), med=100, bgp_id="1.1.1.1")
        b = candidate(path=(8, 3), med=1, bgp_id="2.2.2.2")
        assert DecisionProcess().select([a, b]) is a

    def test_ebgp_preferred_over_ibgp(self):
        a = candidate(path=(1, 2), ebgp=False, bgp_id="1.1.1.1")
        b = candidate(path=(3, 4), ebgp=True, bgp_id="9.9.9.9")
        assert DecisionProcess().select([a, b]) is b

    def test_lowest_bgp_identifier_wins(self):
        a = candidate(path=(1, 2), bgp_id="2.2.2.2")
        b = candidate(path=(3, 4), bgp_id="1.1.1.1")
        assert DecisionProcess().select([a, b]) is b

    def test_lowest_peer_address_final_tiebreak(self):
        a = candidate(path=(1, 2), bgp_id="1.1.1.1", addr="10.0.0.2", peer_id="a")
        b = candidate(path=(1, 3), bgp_id="1.1.1.1", addr="10.0.0.1", peer_id="b")
        assert DecisionProcess().select([a, b]) is b


class TestSelect:
    def test_empty_candidates(self):
        assert DecisionProcess().select([]) is None

    def test_single_candidate(self):
        a = candidate()
        assert DecisionProcess().select([a]) is a

    def test_unresolvable_next_hop_ineligible(self):
        attrs = PathAttributes(as_path=AsPath.from_asns([1]), next_hop=None)
        a = Candidate(attrs, peer())
        b = candidate(path=(1, 2, 3, 4, 5))
        assert DecisionProcess().select([a, b]) is b

    def test_all_unresolvable(self):
        attrs = PathAttributes(as_path=AsPath.from_asns([1]), next_hop=None)
        assert DecisionProcess().select([Candidate(attrs, peer())]) is None

    def test_comparison_counting(self):
        process = DecisionProcess()
        candidates = [candidate(path=(1, 2)), candidate(path=(1,)), candidate(path=(1, 2, 3))]
        process.select(candidates)
        assert process.comparisons == 2

    def test_selection_order_independent(self):
        a = candidate(path=(1,), bgp_id="1.1.1.1")
        b = candidate(path=(1, 2), bgp_id="2.2.2.2")
        c = candidate(path=(1, 2, 3), bgp_id="3.3.3.3")
        for ordering in ([a, b, c], [c, b, a], [b, a, c], [b, c, a]):
            assert DecisionProcess().select(list(ordering)) is a


class TestPreferenceKey:
    def test_med_nontransitivity_documented_behavior(self):
        # a beats b (same neighbor AS, lower MED), b beats c (shorter
        # path? no — same length; different neighbor AS so MED skipped,
        # falls to router id), and c can beat a: the classic MED cycle.
        process = DecisionProcess()
        a = candidate(path=(7, 1), med=5, bgp_id="3.3.3.3")
        b = candidate(path=(7, 2), med=10, bgp_id="1.1.1.1")
        c = candidate(path=(8, 3), med=0, bgp_id="2.2.2.2")
        assert process.prefer(a, b) is a        # MED: 5 < 10
        assert process.prefer(b, c) is b        # router id: 1.1.1.1 < 2.2.2.2
        assert process.prefer(c, a) is c        # router id: 2.2.2.2 < 3.3.3.3
