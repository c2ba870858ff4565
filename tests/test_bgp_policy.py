"""Unit tests for the route-policy engine."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.policy import ACCEPT_ALL, Action, Match, Policy, PolicyResult, Rule
from repro.net.addr import IPv4Address

NH = IPv4Address.parse("10.0.0.1")


def attrs(path=(65001, 65002), communities=(), local_pref=None, med=None):
    return PathAttributes(
        as_path=AsPath.from_asns(list(path)),
        next_hop=NH,
        communities=communities,
        local_pref=local_pref,
        med=med,
    )


class TestMatch:
    def test_empty_match_matches_all(self):
        assert Match().matches(attrs())

    def test_as_in_path(self):
        m = Match(as_in_path=65002)
        assert m.matches(attrs(path=(65001, 65002)))
        assert not m.matches(attrs(path=(65001, 65003)))

    def test_community(self):
        m = Match(community=0xFFFF0001)
        assert m.matches(attrs(communities=(0xFFFF0001,)))
        assert not m.matches(attrs())

    def test_conjunction(self):
        m = Match(as_in_path=65001, community=7)
        assert m.matches(attrs(path=(65001, 2), communities=(7,)))
        assert not m.matches(attrs(path=(65009, 2), communities=(7,)))
        assert not m.matches(attrs(path=(65001, 2)))


class TestAction:
    def test_set_local_pref(self):
        out = Action(set_local_pref=250).apply(attrs())
        assert out.local_pref == 250

    def test_add_community(self):
        out = Action(add_community=123).apply(attrs(communities=(9,)))
        assert out.communities == (9, 123)

    def test_add_community_idempotent(self):
        out = Action(add_community=9).apply(attrs(communities=(9,)))
        assert out.communities == (9,)

    def test_strip_communities(self):
        out = Action(strip_communities=True).apply(attrs(communities=(1, 2)))
        assert out.communities == ()

    def test_strip_then_add(self):
        out = Action(strip_communities=True, add_community=7).apply(
            attrs(communities=(1, 2))
        )
        assert out.communities == (7,)

    def test_noop_action_returns_equal_attributes(self):
        original = attrs()
        assert Action().apply(original) == original


class TestPolicy:
    def test_accept_all(self):
        assert ACCEPT_ALL.apply(attrs()) == attrs()

    def test_reject_all(self):
        assert Policy(default=PolicyResult.REJECT).apply(attrs()) is None

    def test_first_match_wins(self):
        policy = Policy([
            Rule(Match(as_in_path=65001), PolicyResult.ACCEPT, Action(set_local_pref=200)),
            Rule(Match(), PolicyResult.ACCEPT, Action(set_local_pref=50)),
        ])
        assert policy.apply(attrs(path=(65001,))).local_pref == 200
        assert policy.apply(attrs(path=(65009,))).local_pref == 50

    def test_reject_rule(self):
        policy = Policy([
            Rule(Match(as_in_path=666), PolicyResult.REJECT),
        ])
        assert policy.apply(attrs(path=(666, 1))) is None
        assert policy.apply(attrs(path=(1, 2))) == attrs(path=(1, 2))

    def test_default_reject(self):
        policy = Policy(
            [Rule(Match(as_in_path=65001), PolicyResult.ACCEPT)],
            default=PolicyResult.REJECT,
        )
        assert policy.apply(attrs(path=(65001,))) is not None
        assert policy.apply(attrs(path=(65002,))) is None

    def test_evaluation_counter(self):
        policy = Policy([
            Rule(Match(as_in_path=1)),
            Rule(Match(as_in_path=2)),
        ])
        policy.apply(attrs(path=(2,)))
        assert policy.evaluations == 2
        policy.apply(attrs(path=(9,)))
        assert policy.evaluations == 5  # 2 rules + default
