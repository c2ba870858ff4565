"""Unit tests for the LPM engine the FIB runs on, the hash-per-length
:class:`LengthSearchTable`, beside the textbook :class:`BinaryTrie`
every engine is compared against."""

import pytest

from repro.forwarding.lengthsearch import LengthSearchTable
from repro.forwarding.trie import BinaryTrie
from repro.net.addr import AddressError, IPv4Address, Prefix


@pytest.fixture(params=[BinaryTrie, LengthSearchTable], ids=["binary", "lengthsearch"])
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


class TestChurn:
    """Mutations between lookups: every query reports the live entries
    only, and nothing a remove left behind answers for the prefix."""

    def test_ancestor_insert_after_descendant(self, trie):
        trie.insert(Prefix.parse("10.1.0.0/16"), "deep")
        trie.insert(Prefix.parse("10.0.0.0/8"), "shallow")
        assert trie.lookup(IPv4Address.parse("10.1.2.3"))[1] == "deep"
        assert trie.lookup(IPv4Address.parse("10.2.0.0"))[1] == "shallow"

    def test_removed_more_specific_falls_back_to_covering_route(self, trie):
        load(trie)
        assert trie.remove(Prefix.parse("10.1.2.0/24")) is True
        assert trie.lookup(IPv4Address.parse("10.1.2.3")) == (
            Prefix.parse("10.1.0.0/16"), "ten-one",
        )
        trie.insert(Prefix.parse("10.1.2.0/24"), "back")
        trie.remove(Prefix.parse("10.1.0.0/16"))
        assert trie.lookup(IPv4Address.parse("10.1.2.3"))[1] == "back"
        assert trie.lookup(IPv4Address.parse("10.1.9.9"))[1] == "ten"

    def test_reinsert_after_remove(self, trie):
        load(trie)
        prefix = Prefix.parse("192.0.2.128/25")
        trie.remove(prefix)
        assert trie.exact(prefix) is None and len(trie) == len(ROUTES) - 1
        assert trie.insert(prefix, "again") is True
        assert trie.exact(prefix) == "again" and len(trie) == len(ROUTES)
        assert trie.lookup(IPv4Address.parse("192.0.2.200")) == (prefix, "again")

    def test_items_ascending_after_churn(self, trie):
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
        assert len(trie) == len(keys)

    def test_items_snapshot_survives_mutation(self, trie):
        load(trie)
        seen = []
        for prefix, value in trie.items():
            seen.append((prefix, value))
            trie.remove(prefix)
            trie.insert(Prefix.from_address(IPv4Address(prefix.network | 1), 32), "new")
        assert dict(seen) == {Prefix.parse(t): v for t, v in ROUTES}
        assert len(trie) == len(ROUTES)


class TestCrossImplementationEquivalence:
    def test_same_results_on_dense_set(self):
        binary, table = BinaryTrie(), LengthSearchTable()
        prefixes = dense_prefixes()
        for prefix in prefixes:
            binary.insert(prefix, str(prefix))
            table.insert(prefix, str(prefix))
        assert len(binary) == len(table)
        probes = [IPv4Address((i * 2246822519) & 0xFFFFFFFF) for i in range(256)]
        for probe in probes:
            assert binary.lookup(probe) == table.lookup(probe)
        # Remove half and re-check.
        for prefix in prefixes[::2]:
            assert binary.remove(prefix) == table.remove(prefix)
        for probe in probes:
            assert binary.lookup(probe) == table.lookup(probe)
