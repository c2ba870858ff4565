"""Tests for the survey lookup schemes (multibit table, binary search on
lengths): unit behaviour plus equivalence with the reference tries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forwarding.lengthsearch import LengthSearchTable
from repro.forwarding.multibit import MultibitTable
from repro.forwarding.trie import BinaryTrie
from repro.net.addr import IPv4Address, Prefix

ALL_CLASSES = [BinaryTrie, MultibitTable, LengthSearchTable]

ROUTES = [
    ("0.0.0.0/0", "default"),
    ("10.0.0.0/8", "ten"),
    ("10.1.0.0/16", "ten-one"),
    ("10.1.2.0/24", "ten-one-two"),
    ("10.1.2.77/32", "host"),
    ("192.0.2.0/24", "doc"),
    ("192.0.2.128/25", "doc-upper"),
]


@pytest.fixture(params=[MultibitTable, LengthSearchTable],
                ids=["multibit", "lengthsearch"])
def table(request):
    return request.param()


def load(table):
    for text, value in ROUTES:
        table.insert(Prefix.parse(text), value)
    return table


class TestBasics:
    def test_insert_and_len(self, table):
        load(table)
        assert len(table) == len(ROUTES)

    def test_reinsert_not_new(self, table):
        prefix = Prefix.parse("10.0.0.0/8")
        assert table.insert(prefix, "a") is True
        assert table.insert(prefix, "b") is False
        assert table.exact(prefix) == "b"

    def test_lookup_cases(self, table):
        load(table)
        cases = [
            ("10.1.2.77", "host"),
            ("10.1.2.3", "ten-one-two"),
            ("10.1.9.9", "ten-one"),
            ("10.9.9.9", "ten"),
            ("192.0.2.1", "doc"),
            ("192.0.2.200", "doc-upper"),
            ("8.8.8.8", "default"),
        ]
        for address, expected in cases:
            hit = table.lookup(IPv4Address.parse(address))
            assert hit is not None and hit[1] == expected, address

    def test_miss_without_default(self, table):
        table.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert table.lookup(IPv4Address.parse("11.0.0.0")) is None

    def test_remove(self, table):
        load(table)
        assert table.remove(Prefix.parse("10.1.0.0/16")) is True
        assert table.remove(Prefix.parse("10.1.0.0/16")) is False
        assert table.lookup(IPv4Address.parse("10.1.9.9"))[1] == "ten"
        assert table.lookup(IPv4Address.parse("10.1.2.3"))[1] == "ten-one-two"

    def test_remove_exposes_covering_route(self, table):
        load(table)
        table.remove(Prefix.parse("10.1.2.77/32"))
        assert table.lookup(IPv4Address.parse("10.1.2.77"))[1] == "ten-one-two"

    def test_items(self, table):
        load(table)
        assert dict(table.items()) == {Prefix.parse(t): v for t, v in ROUTES}

    def test_empty(self, table):
        assert table.lookup(IPv4Address.parse("1.2.3.4")) is None
        assert len(table) == 0


class TestMultibitSpecifics:
    def test_split_validation(self):
        with pytest.raises(ValueError):
            MultibitTable(first_level_bits=0)
        with pytest.raises(ValueError):
            MultibitTable(first_level_bits=25)

    def test_short_prefix_direct_slots(self):
        table = MultibitTable(first_level_bits=16)
        table.insert(Prefix.parse("10.0.0.0/8"), "ten")
        # 2^8 slots get direct entries; no chunks needed.
        assert table.lookup(IPv4Address.parse("10.200.0.1"))[1] == "ten"
        assert not table._long

    def test_long_prefix_creates_chunk(self):
        table = MultibitTable(first_level_bits=16)
        table.insert(Prefix.parse("10.0.0.0/8"), "ten")
        table.insert(Prefix.parse("10.1.2.0/24"), "deep")
        assert table.lookup(IPv4Address.parse("10.1.2.9"))[1] == "deep"
        assert table.lookup(IPv4Address.parse("10.1.3.9"))[1] == "ten"

    def test_alternate_split(self):
        table = MultibitTable(first_level_bits=12)
        table.insert(Prefix.parse("10.1.2.0/24"), "deep")
        table.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert table.lookup(IPv4Address.parse("10.1.2.9"))[1] == "deep"
        assert table.lookup(IPv4Address.parse("10.250.0.1"))[1] == "ten"

    def test_boundary_length_equal_to_split(self):
        table = MultibitTable(first_level_bits=16)
        table.insert(Prefix.parse("10.1.0.0/16"), "exact-split")
        assert table.lookup(IPv4Address.parse("10.1.200.1"))[1] == "exact-split"


class TestLengthSearchSpecifics:
    def test_lazy_rebuild(self):
        table = LengthSearchTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert table.rebuilds == 0
        table.lookup(IPv4Address.parse("10.0.0.1"))
        assert table.rebuilds == 1
        table.lookup(IPv4Address.parse("10.0.0.2"))
        assert table.rebuilds == 1  # no mutation, no rebuild

    def test_probe_count_logarithmic(self):
        table = LengthSearchTable()
        for length in (8, 12, 16, 20, 24, 28, 32):
            network = 10 << 24
            table.insert(Prefix.from_address(IPv4Address(network), length), length)
        table.lookup(IPv4Address.parse("10.0.0.0"))
        first_probes = table.probes
        assert first_probes <= 3  # ceil(log2(7)) = 3 probes for 7 levels

    def test_marker_led_search_recovers_best_match(self):
        """A marker points toward a longer prefix that does not match
        the query; the precomputed best match must still win."""
        table = LengthSearchTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "short")
        table.insert(Prefix.parse("10.1.2.128/25"), "long")
        # 10.1.2.0 matches the /8 and the markers of the /25 path down
        # to /24-ish truncations, but not the /25 itself.
        hit = table.lookup(IPv4Address.parse("10.1.2.0"))
        assert hit == (Prefix.parse("10.0.0.0/8"), "short")

    def test_removing_a_stored_none_invalidates_the_search(self):
        """A None value is a route: removing it must report True and
        rebuild, or a later lookup still returns it."""
        prefix = Prefix.parse("10.0.0.0/8")
        table = LengthSearchTable()
        table.insert(prefix, None)
        assert table.lookup(IPv4Address.parse("10.0.0.1")) == (prefix, None)
        assert table.remove(prefix) is True
        assert len(table) == 0 and prefix not in table
        assert table.lookup(IPv4Address.parse("10.0.0.1")) is None
        assert table.remove(prefix) is False


class TestFourWayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                st.integers(min_value=8, max_value=32),
            ).map(lambda t: Prefix.from_address(IPv4Address(t[0]), t[1])),
            st.integers(),
            max_size=25,
        ),
        st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=15),
    )
    def test_all_structures_agree(self, routes, probes):
        structures = [cls() for cls in ALL_CLASSES]
        for prefix, value in routes.items():
            for structure in structures:
                structure.insert(prefix, value)
        for probe in probes:
            results = [structure.lookup(IPv4Address(probe)) for structure in structures]
            assert all(result == results[0] for result in results), probe

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(
                    st.integers(min_value=0, max_value=0xFFFFFFFF),
                    st.integers(min_value=8, max_value=32),
                ).map(lambda t: Prefix.from_address(IPv4Address(t[0]), t[1])),
                st.booleans(),
            ),
            max_size=40,
        ),
        st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=10),
    )
    def test_agreement_under_mixed_mutations(self, operations, probes):
        structures = [cls() for cls in ALL_CLASSES]
        for prefix, is_insert in operations:
            outcomes = set()
            for structure in structures:
                if is_insert:
                    outcomes.add(("i", structure.insert(prefix, prefix.network)))
                else:
                    outcomes.add(("r", structure.remove(prefix)))
            assert len(outcomes) == 1  # all agree on is_new / removed
        reference = dict(structures[0].items())
        for structure in structures[1:]:
            assert dict(structure.items()) == reference
        for probe in probes:
            results = [structure.lookup(IPv4Address(probe)) for structure in structures]
            assert all(result == results[0] for result in results)
