"""Unit tests for the synthetic routing-table generator."""

import dataclasses
import hashlib

import pytest

import repro.bgp
from repro.workload import tablegen
from repro.workload.tablegen import PREFIX_LENGTH_MIX, RouteEntry, generate_table
from repro.net.addr import Prefix


class TestGeneration:
    def test_requested_size(self):
        assert len(generate_table(100)) == 100

    def test_empty_table(self):
        assert len(generate_table(0)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_table(-1)

    def test_deterministic_for_seed(self):
        a = generate_table(200, seed=7)
        b = generate_table(200, seed=7)
        assert a.prefixes() == b.prefixes()
        assert [e.origin_as for e in a] == [e.origin_as for e in b]

    def test_different_seeds_differ(self):
        a = generate_table(200, seed=1)
        b = generate_table(200, seed=2)
        assert a.prefixes() != b.prefixes()

    def test_all_prefixes_unique(self):
        table = generate_table(2000)
        prefixes = table.prefixes()
        assert len(set(prefixes)) == len(prefixes)

    def test_prefixes_canonical(self):
        for entry in generate_table(500):
            # Construction via Prefix would raise otherwise, but verify
            # the invariant explicitly.
            assert Prefix(entry.prefix.network, entry.prefix.length) == entry.prefix

    def test_avoids_reserved_space(self):
        for entry in generate_table(1000):
            first_octet = entry.prefix.network >> 24
            assert first_octet not in (0, 10, 127)
            assert first_octet < 224

    def test_length_distribution_dominated_by_24(self):
        histogram = generate_table(5000).length_histogram()
        assert max(histogram, key=histogram.get) == 24
        # /24s are roughly half the table.
        assert 0.4 < histogram[24] / 5000 < 0.62

    def test_length_mix_sums_to_one(self):
        assert sum(share for _l, share in PREFIX_LENGTH_MIX) == pytest.approx(1.0, abs=0.01)

    def test_indexing_and_iteration(self):
        table = generate_table(10)
        assert table[0] in list(table)
        assert isinstance(table[0], RouteEntry)


class TestTableIdentity:
    @pytest.fixture(autouse=True)
    def cold_caches(self):
        """Each test starts from an empty memo, whatever ran before it."""
        repro.bgp.reset_caches()

    #: sha256 of ``repr([(prefix, origin_as, transit), ...])``, recorded
    #: from the generator that built every prefix through
    #: ``Prefix.from_address(IPv4Address(network), length)``: the memo
    #: and the direct masking must not move a single draw.
    PINNED = {
        (2000, 42): "28963433cede88765288ecab26c66383fceba128088f9b7f7f9c2316ffa12cae",
        (400, 42): "645d8ad3d3cfce6ef73e7df61b1cf09029c0db4036db938de1545349a45b4188",
        (150, 43): "1a4c481650e5383886743b567c009a6be1771657443e47a0cf6c93875d5eb175",
    }

    @pytest.mark.parametrize("size, seed", sorted(PINNED))
    def test_table_is_bit_identical(self, size, seed):
        table = generate_table(size, seed)
        text = repr([(tuple(e.prefix), e.origin_as, e.transit) for e in table.entries])
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[size, seed]

    def test_repeated_call_returns_the_same_table(self):
        assert generate_table(300, seed=5) is generate_table(300, seed=5)

    def test_a_full_memo_still_returns_the_newest_table(self):
        for seed in range(tablegen._TABLE_CAPACITY + 3):
            generate_table(10, seed=1000 + seed)
        newest = generate_table(10, seed=2000)
        assert generate_table(10, seed=2000) is newest
        assert len(tablegen._tables) == tablegen._TABLE_CAPACITY

    def test_table_is_immutable(self):
        table = generate_table(20)
        assert isinstance(table.entries, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.entries = ()

    def test_reset_caches_makes_the_next_call_cold(self):
        before = generate_table(300, seed=5)
        repro.bgp.reset_caches()
        after = generate_table(300, seed=5)
        assert after is not before
        assert after == before


class TestPathVia:
    def entry(self):
        return RouteEntry(Prefix.parse("192.0.2.0/24"), origin_as=4000, transit=(2000, 3000))

    def test_baseline_four_hops(self):
        path = self.entry().path_via(65101)
        assert path == (65101, 2000, 3000, 4000)

    def test_longer_path(self):
        path = self.entry().path_via(65102, extra_hops=2)
        assert len(path) == 6
        assert path[0] == 65102
        assert path[-1] == 4000

    def test_shorter_path(self):
        path = self.entry().path_via(65102, extra_hops=-2)
        assert path == (65102, 4000)

    def test_one_fewer_hop(self):
        path = self.entry().path_via(65102, extra_hops=-1)
        assert path == (65102, 2000, 4000)

    def test_longer_strictly_longer_than_baseline(self):
        entry = self.entry()
        assert len(entry.path_via(65102, 2)) > len(entry.path_via(65101, 0))

    def test_shorter_strictly_shorter_than_baseline(self):
        entry = self.entry()
        assert len(entry.path_via(65102, -2)) < len(entry.path_via(65101, 0))

    def test_synthetic_hops_valid_asns(self):
        path = self.entry().path_via(65102, extra_hops=5)
        for asn in path:
            assert 0 < asn <= 0xFFFF
