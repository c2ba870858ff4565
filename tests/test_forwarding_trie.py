"""Unit tests for both LPM trie implementations: the textbook
:class:`BinaryTrie` and the path-compressed :class:`PrefixTrieMap` the
FIB and the RIBs run on."""

import pytest

from repro.forwarding.trie import BinaryTrie
from repro.net.addr import AddressError, IPv4Address, Prefix
from repro.net.trie import PrefixTrieMap


@pytest.fixture(params=[BinaryTrie, PrefixTrieMap], ids=["binary", "compressed"])
def trie(request):
    return request.param()


ROUTES = [
    ("0.0.0.0/0", "default"),
    ("10.0.0.0/8", "ten"),
    ("10.1.0.0/16", "ten-one"),
    ("10.1.2.0/24", "ten-one-two"),
    ("192.0.2.0/24", "doc"),
    ("192.0.2.128/25", "doc-upper"),
]


def load(trie):
    for text, value in ROUTES:
        trie.insert(Prefix.parse(text), value)
    return trie


def dense_prefixes():
    return [
        Prefix.from_address(IPv4Address((i * 2654435761) & 0xFFFFFFFF), 8 + i % 25)
        for i in range(64)
    ]


class TestInsertLookup:
    def test_len_counts_unique_prefixes(self, trie):
        load(trie)
        assert len(trie) == len(ROUTES)

    def test_insert_returns_is_new(self, trie):
        prefix = Prefix.parse("10.0.0.0/8")
        assert trie.insert(prefix, "a") is True
        assert trie.insert(prefix, "b") is False
        assert len(trie) == 1
        assert trie.exact(prefix) == "b"

    def test_longest_prefix_match(self, trie):
        load(trie)
        cases = [
            ("10.1.2.3", "ten-one-two"),
            ("10.1.9.9", "ten-one"),
            ("10.9.9.9", "ten"),
            ("192.0.2.1", "doc"),
            ("192.0.2.200", "doc-upper"),
            ("8.8.8.8", "default"),
        ]
        for addr, expected in cases:
            match = trie.lookup(IPv4Address.parse(addr))
            assert match is not None and match[1] == expected, addr

    def test_lookup_reports_matching_prefix(self, trie):
        load(trie)
        prefix, value = trie.lookup(IPv4Address.parse("10.1.2.3"))
        assert prefix == Prefix.parse("10.1.2.0/24")

    def test_lookup_miss_without_default(self, trie):
        trie.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert trie.lookup(IPv4Address.parse("11.0.0.0")) is None

    def test_empty_trie(self, trie):
        assert trie.lookup(IPv4Address.parse("1.2.3.4")) is None
        assert trie.exact(Prefix.parse("10.0.0.0/8")) is None
        assert len(trie) == 0

    def test_host_route(self, trie):
        trie.insert(Prefix.parse("192.0.2.7/32"), "host")
        trie.insert(Prefix.parse("192.0.2.0/24"), "net")
        assert trie.lookup(IPv4Address.parse("192.0.2.7"))[1] == "host"
        assert trie.lookup(IPv4Address.parse("192.0.2.8"))[1] == "net"

    def test_zero_length_prefix(self, trie):
        trie.insert(Prefix.parse("0.0.0.0/0"), "default")
        assert trie.lookup(0)[1] == "default"
        assert trie.exact(Prefix.parse("0.0.0.0/0")) == "default"

    @pytest.mark.parametrize("address", [-1, 2**32, 2**32 + 5])
    def test_lookup_rejects_out_of_range_int(self, trie, address):
        # Used to fall through to the default route.
        trie.insert(Prefix.parse("0.0.0.0/0"), "default")
        with pytest.raises(AddressError):
            trie.lookup(address)
        assert trie.lookup(2**32 - 1)[1] == "default"


class TestExact:
    def test_exact_does_not_match_covering(self, trie):
        trie.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert trie.exact(Prefix.parse("10.1.0.0/16")) is None

    def test_exact_does_not_match_covered(self, trie):
        trie.insert(Prefix.parse("10.1.0.0/16"), "deep")
        assert trie.exact(Prefix.parse("10.0.0.0/8")) is None


class TestRemove:
    def test_remove_present(self, trie):
        load(trie)
        assert trie.remove(Prefix.parse("10.1.0.0/16")) is True
        assert trie.exact(Prefix.parse("10.1.0.0/16")) is None
        assert len(trie) == len(ROUTES) - 1
        # LPM now falls through to the /8.
        assert trie.lookup(IPv4Address.parse("10.1.9.9"))[1] == "ten"
        # The deeper /24 is untouched.
        assert trie.lookup(IPv4Address.parse("10.1.2.3"))[1] == "ten-one-two"

    def test_remove_absent(self, trie):
        load(trie)
        assert trie.remove(Prefix.parse("172.16.0.0/12")) is False
        assert len(trie) == len(ROUTES)

    def test_remove_absent_longer_than_any(self, trie):
        trie.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert trie.remove(Prefix.parse("10.0.0.0/24")) is False

    def test_remove_all_then_reinsert(self, trie):
        load(trie)
        for text, _value in ROUTES:
            assert trie.remove(Prefix.parse(text)) is True
        assert len(trie) == 0
        assert trie.lookup(IPv4Address.parse("10.1.2.3")) is None
        load(trie)
        assert trie.lookup(IPv4Address.parse("10.1.2.3"))[1] == "ten-one-two"

    def test_double_remove(self, trie):
        prefix = Prefix.parse("10.0.0.0/8")
        trie.insert(prefix, "a")
        assert trie.remove(prefix) is True
        assert trie.remove(prefix) is False


class TestItems:
    def test_items_complete(self, trie):
        load(trie)
        items = dict(trie.items())
        assert items == {Prefix.parse(t): v for t, v in ROUTES}

    def test_items_after_removal(self, trie):
        load(trie)
        trie.remove(Prefix.parse("10.1.0.0/16"))
        assert Prefix.parse("10.1.0.0/16") not in dict(trie.items())


class TestCompressedSpecifics:
    """Withdrawn prefixes stay in the trie as tombstones; every query
    walks through them and reports live entries only."""

    def test_ancestor_insert_after_descendant(self):
        trie = PrefixTrieMap()
        trie.insert(Prefix.parse("10.1.0.0/16"), "deep")
        trie.insert(Prefix.parse("10.0.0.0/8"), "shallow")
        assert trie.lookup(IPv4Address.parse("10.1.2.3"))[1] == "deep"
        assert trie.lookup(IPv4Address.parse("10.2.0.0"))[1] == "shallow"

    def test_insert_on_a_branch_node(self):
        trie = PrefixTrieMap()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        trie.insert(Prefix.parse("11.0.0.0/8"), "b")  # branch node at 10.0.0.0/7
        branch = Prefix.parse("10.0.0.0/7")
        assert trie.exact(branch) is None and branch not in trie
        assert trie.lookup(IPv4Address.parse("10.1.1.1"))[1] == "a"
        assert trie.insert(branch, "both") is True
        assert trie.exact(branch) == "both" and len(trie) == 3
        trie.remove(Prefix.parse("10.0.0.0/8"))
        assert trie.lookup(IPv4Address.parse("10.1.1.1")) == (branch, "both")

    def test_removed_more_specific_falls_back_to_covering_route(self):
        trie = load(PrefixTrieMap())
        assert trie.remove(Prefix.parse("10.1.2.0/24")) is True
        assert trie.lookup(IPv4Address.parse("10.1.2.3")) == (
            Prefix.parse("10.1.0.0/16"), "ten-one",
        )
        # A tombstone between two live entries is walked through.
        trie.insert(Prefix.parse("10.1.2.0/24"), "back")
        trie.remove(Prefix.parse("10.1.0.0/16"))
        assert trie.lookup(IPv4Address.parse("10.1.2.3"))[1] == "back"
        assert trie.lookup(IPv4Address.parse("10.1.9.9"))[1] == "ten"

    def test_reinsert_after_remove(self):
        trie = load(PrefixTrieMap())
        prefix = Prefix.parse("192.0.2.128/25")
        trie.remove(prefix)
        assert prefix not in trie and len(trie) == len(ROUTES) - 1
        assert trie.insert(prefix, "again") is True
        assert trie.exact(prefix) == "again" and len(trie) == len(ROUTES)
        assert trie.lookup(IPv4Address.parse("192.0.2.200")) == (prefix, "again")

    def test_items_ascending_after_churn(self):
        trie = PrefixTrieMap()
        prefixes = dense_prefixes()
        for prefix in prefixes:
            trie.insert(prefix, str(prefix))
        for prefix in prefixes[::3]:
            trie.remove(prefix)
        for prefix in prefixes[::6]:
            trie.insert(prefix, "back")
        live = {p for i, p in enumerate(prefixes) if i % 3 or i % 6 == 0}
        keys = [prefix for prefix, _value in trie.items()]
        assert keys == sorted(live, key=lambda p: (p.network, p.length))
        assert trie.keys() == keys and len(trie) == len(keys)

    def test_covered_equals_brute_force_over_tombstones(self):
        trie = PrefixTrieMap()
        prefixes = dense_prefixes()
        for prefix in prefixes:
            trie.insert(prefix, str(prefix))
        for prefix in prefixes[::2]:
            trie.remove(prefix)
        live = trie.items()
        assert len(live) < len(set(prefixes))
        for aggregate in [Prefix.parse("0.0.0.0/0"), Prefix.parse("128.0.0.0/1"),
                          Prefix.parse("64.0.0.0/2"), *prefixes[:16]]:
            expected = [(p, v) for p, v in live if aggregate.covers(p)]
            assert trie.covered(aggregate) == expected, aggregate

    def test_items_snapshot_survives_mutation(self):
        trie = load(PrefixTrieMap())
        seen = []
        for prefix, value in trie.items():
            seen.append((prefix, value))
            trie.remove(prefix)
            trie.insert(Prefix.from_address(IPv4Address(prefix.network | 1), 32), "new")
        assert dict(seen) == {Prefix.parse(t): v for t, v in ROUTES}
        assert len(trie) == len(ROUTES)


class TestCrossImplementationEquivalence:
    def test_same_results_on_dense_set(self):
        binary, compressed = BinaryTrie(), PrefixTrieMap()
        prefixes = dense_prefixes()
        for prefix in prefixes:
            binary.insert(prefix, str(prefix))
            compressed.insert(prefix, str(prefix))
        assert len(binary) == len(compressed)
        probes = [IPv4Address((i * 2246822519) & 0xFFFFFFFF) for i in range(256)]
        for probe in probes:
            assert binary.lookup(probe) == compressed.lookup(probe)
        # Remove half and re-check.
        for prefix in prefixes[::2]:
            assert binary.remove(prefix) == compressed.remove(prefix)
        for probe in probes:
            assert binary.lookup(probe) == compressed.lookup(probe)
