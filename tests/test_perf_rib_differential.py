"""Differential pinning of the trie-backed RIBs.

The trie rewrite of :mod:`repro.bgp.rib` must be observationally
identical to the dict-backed originals (retained verbatim in
:mod:`oracles.reference`). Seeded random operation sequences are
replayed against both implementations in lock-step and every observable
is compared: the :class:`RouteChange` returned by each mutation,
lengths, membership, point lookups, full iteration order, aggregate
queries, and Adj-RIB-Out pending deltas. Any divergence — including a
different-but-plausible iteration order — fails here before it can
perturb a golden baseline.
"""

import random

import pytest

from repro.bgp.attributes import AsPath, PathAttributes, intern_attributes
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibRoute
from repro.net.addr import IPv4Address, Prefix

from oracles.reference import DictAdjRibIn, DictAdjRibOut, DictLocRib

SEEDS = [1, 7, 42, 1007]
STEPS = 900

NEXT_HOP = IPv4Address.parse("10.0.0.1")


def prefix_pool(rng: random.Random, size: int = 120) -> "list[Prefix]":
    """A pool rich in nested prefixes: a handful of /8s, each with /16,
    /24 and /32 descendants, so aggregate queries and trie internal
    splits are exercised alongside plain exact-match churn."""
    pool: set[Prefix] = set()
    octets = [10, 10, 10, 172, 192]  # deliberately skewed: collisions wanted
    while len(pool) < size:
        top = rng.choice(octets)
        length = rng.choice((8, 16, 16, 24, 24, 24, 32))
        network = top << 24
        if length >= 16:
            network |= rng.randrange(256) << 16
        if length >= 24:
            network |= rng.randrange(256) << 8
        if length == 32:
            network |= rng.randrange(256)
        pool.add(Prefix(network, length))
    return sorted(pool, key=lambda p: (p.network, p.length))


def make_attributes(rng: random.Random) -> PathAttributes:
    """Freshly constructed every call — equal announcements must reach
    the RIBs as distinct objects, exactly as a non-interning decoder
    would hand them over."""
    return PathAttributes(
        as_path=AsPath.from_asns([65001, 65000 + rng.randrange(4)]),
        next_hop=NEXT_HOP,
        med=rng.randrange(3),
    )


class TestAdjRibInDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_identical(self, seed):
        rng = random.Random(seed)
        pool = prefix_pool(rng)
        trie, ref = AdjRibIn("peer"), DictAdjRibIn("peer")
        for step in range(STEPS):
            prefix = rng.choice(pool)
            roll = rng.random()
            if roll < 0.55:
                attrs = make_attributes(rng)
                assert trie.update(prefix, attrs) is ref.update(prefix, attrs)
            elif roll < 0.85:
                assert trie.withdraw(prefix) is ref.withdraw(prefix)
            elif roll < 0.98:
                assert trie.get(prefix) == ref.get(prefix)
                assert (prefix in trie) is (prefix in ref)
            else:
                assert trie.clear() == ref.clear()
            if step % 97 == 0:
                assert len(trie) == len(ref)
                assert list(trie.prefixes()) == list(ref.prefixes())
                assert list(trie.items()) == list(ref.items())
        assert list(trie.items()) == list(ref.items())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interned_attributes_same_changes(self, seed):
        """Interning collapses equal attributes to one object; the
        RouteChange sequence must not notice."""
        rng = random.Random(seed)
        pool = prefix_pool(rng, size=40)
        plain, interned = AdjRibIn("a"), AdjRibIn("b")
        for _ in range(STEPS):
            prefix = rng.choice(pool)
            if rng.random() < 0.7:
                attrs = make_attributes(rng)
                assert plain.update(prefix, attrs) is interned.update(
                    prefix, intern_attributes(attrs)
                )
            else:
                assert plain.withdraw(prefix) is interned.withdraw(prefix)
        assert list(plain.items()) == list(interned.items())


class TestLocRibDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_identical(self, seed):
        rng = random.Random(seed)
        pool = prefix_pool(rng)
        aggregates = [Prefix(10 << 24, 8), Prefix(172 << 24, 8), Prefix(192 << 24, 8)]
        trie, ref = LocRib(), DictLocRib()
        for step in range(STEPS):
            prefix = rng.choice(pool)
            roll = rng.random()
            if roll < 0.5:
                route = RibRoute(prefix, make_attributes(rng), f"peer{rng.randrange(3)}")
                assert trie.set_best(route) is ref.set_best(route)
            elif roll < 0.8:
                assert trie.remove(prefix) is ref.remove(prefix)
            elif roll < 0.95:
                aggregate = rng.choice(aggregates)
                assert trie.covered(aggregate) == ref.covered(aggregate)
            else:
                assert trie.get(prefix) == ref.get(prefix)
            if step % 97 == 0:
                assert len(trie) == len(ref)
                assert list(trie.routes()) == list(ref.routes())
                assert list(trie.prefixes()) == list(ref.prefixes())
                assert trie.fib_view() == ref.fib_view()
        assert list(trie.routes()) == list(ref.routes())
        assert trie.fib_view() == ref.fib_view()

    def test_covered_includes_exact_match(self):
        aggregate = Prefix.parse("10.0.0.0/8")
        trie, ref = LocRib(), DictLocRib()
        for rib in (trie, ref):
            rib.set_best(
                RibRoute(
                    aggregate,
                    PathAttributes(as_path=AsPath.from_asns([65001]), next_hop=NEXT_HOP),
                    "peer",
                )
            )
        assert trie.covered(aggregate) == ref.covered(aggregate)
        assert len(trie.covered(aggregate)) == 1


class TestAdjRibOutDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_identical(self, seed):
        rng = random.Random(seed)
        pool = prefix_pool(rng, size=60)
        trie, ref = AdjRibOut("peer"), DictAdjRibOut("peer")
        for step in range(STEPS):
            prefix = rng.choice(pool)
            roll = rng.random()
            if roll < 0.5:
                attrs = make_attributes(rng)
                assert trie.stage(prefix, attrs) is ref.stage(prefix, attrs)
            elif roll < 0.8:
                assert trie.stage_withdraw(prefix) is ref.stage_withdraw(prefix)
            elif roll < 0.9:
                assert trie.advertised(prefix) == ref.advertised(prefix)
            else:
                assert trie.has_pending() == ref.has_pending()
                assert trie.pending_counts() == ref.pending_counts()
                assert trie.take_pending() == ref.take_pending()
            if step % 97 == 0:
                assert len(trie) == len(ref)
        assert trie.take_pending() == ref.take_pending()
        assert len(trie) == len(ref)
