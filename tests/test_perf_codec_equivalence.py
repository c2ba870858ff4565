"""Codec equivalence: the zero-copy decoder against the frozen legacy one.

The optimized path in :mod:`repro.bgp.messages` (O(n) stream framing,
batched ``memoryview`` NLRI parsing, memoized attribute decode, prefix
flyweights) must be a pure performance change. This suite replays the
same corpora — seeded benchmark streams, every encodable message shape,
and systematically corrupted wire bytes — through both decoders and
asserts byte-for-byte equal results and an identical error taxonomy:
same exception type, same NOTIFICATION code and subcode, same data
payload, raised at the same offset in the stream.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bgp
from repro.bgp.attributes import (
    AsPath,
    PathAttributes,
    WellKnownCommunity,
    clear_codec_caches,
    codec_cache_stats,
    encode_attributes,
    intern_attributes,
)
from repro.bgp.errors import BgpError
from repro.bgp.messages import (
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    clear_prefix_cache,
    decode_message,
    decode_nlri,
    iter_messages,
)
from repro.bgp.policy import Action, Match, Policy, PolicyResult, PrefixMatch, Rule
from repro.bgp.rib import RibRoute
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address, Prefix
from repro.topo.policy import TAG_PEER, export_policy, import_policy
from repro.workload.astopo import Relationship
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

from oracles import legacy_codec
from test_properties import path_attributes, prefixes

NH = IPv4Address.parse("10.0.0.1")
ATTRS = PathAttributes(as_path=AsPath.from_asns([65100, 300]), next_hop=NH)


def flap_stream(table_size, passes):
    builder = UpdateStreamBuilder(65100, NH)
    return b"".join(builder.flap_storm(generate_table(table_size, seed=8), passes, 1))


def fresh_caches():
    clear_codec_caches()
    clear_prefix_cache()


def decode_outcome(decoder, wire):
    """Reduce a decode attempt to a comparable value: the message, or
    the full identity of the error it raised."""
    try:
        return ("ok", decoder(wire))
    except BgpError as error:
        notification = error.notification
        return (
            "error",
            type(error).__name__,
            notification.code,
            notification.subcode,
            bytes(notification.data),
        )


def stream_outcome(iterator, stream):
    """Consume a stream iterator to (messages, lengths, error identity)."""
    messages = []
    try:
        for message, length in iterator(stream):
            messages.append((message, length))
    except BgpError as error:
        notification = error.notification
        return (
            messages,
            type(error).__name__,
            notification.code,
            notification.subcode,
            bytes(notification.data),
        )
    return (messages, None)


def corpus_messages():
    return [
        KeepaliveMessage().encode(),
        OpenMessage(65001, 90, IPv4Address.parse("1.2.3.4"), b"\x01\x02").encode(),
        OpenMessage(65001, 0, IPv4Address.parse("9.9.9.9")).encode(),
        NotificationMessage(6, 2, b"bye").encode(),
        UpdateMessage().encode(),
        UpdateMessage(withdrawn=(Prefix.parse("192.0.2.0/24"),)).encode(),
        UpdateMessage(
            attributes=ATTRS,
            nlri=(
                Prefix.parse("0.0.0.0/0"),
                Prefix.parse("10.0.0.0/8"),
                Prefix.parse("10.128.0.0/9"),
                Prefix.parse("192.0.2.0/24"),
                Prefix.parse("192.0.2.1/32"),
            ),
        ).encode(),
        UpdateMessage(
            withdrawn=(Prefix.parse("203.0.113.0/24"), Prefix.parse("198.18.0.0/15")),
            attributes=ATTRS,
            nlri=(Prefix.parse("192.0.2.0/24"),),
        ).encode(),
    ]


class TestValidCorpus:
    @pytest.mark.parametrize("wire", corpus_messages(), ids=range(len(corpus_messages())))
    def test_single_messages_equal(self, wire):
        fresh_caches()
        assert decode_message(wire) == legacy_codec.legacy_decode_message(wire)

    def test_benchmark_stream_equal(self):
        fresh_caches()
        stream = flap_stream(table_size=80, passes=3)
        optimized = stream_outcome(iter_messages, stream)
        legacy = stream_outcome(legacy_codec.legacy_iter_messages, stream)
        assert optimized == legacy
        assert optimized[1] is None
        assert len(optimized[0]) > 0

    def test_cached_decode_equals_cold_decode(self):
        """Second pass answers from the codec caches; results must be
        indistinguishable from the cold pass."""
        stream = flap_stream(table_size=40, passes=2)
        fresh_caches()
        cold = stream_outcome(iter_messages, stream)
        warm = stream_outcome(iter_messages, stream)
        assert cold == warm

    def test_nlri_decoders_equal(self):
        fresh_caches()
        wire = bytes.fromhex("00" + "080a" + "090a80" + "18c00002" + "20c0000201")
        assert decode_nlri(wire) == legacy_codec.legacy_decode_nlri(wire)


class TestCorruptCorpus:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_single_byte_mutations_same_taxonomy(self, data):
        wires = corpus_messages()
        wire = bytearray(wires[data.draw(st.integers(0, len(wires) - 1))])
        index = data.draw(st.integers(0, len(wire) - 1))
        wire[index] = data.draw(st.integers(0, 255))
        wire = bytes(wire)
        fresh_caches()
        assert decode_outcome(decode_message, wire) == decode_outcome(
            legacy_codec.legacy_decode_message, wire
        )

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=80))
    def test_arbitrary_bytes_same_taxonomy(self, wire):
        fresh_caches()
        assert decode_outcome(decode_message, wire) == decode_outcome(
            legacy_codec.legacy_decode_message, wire
        )

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=19, max_size=80).map(lambda b: b"\xff" * 16 + b[16:]))
    def test_marker_prefixed_garbage_same_taxonomy(self, wire):
        fresh_caches()
        assert decode_outcome(decode_message, wire) == decode_outcome(
            legacy_codec.legacy_decode_message, wire
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_streams_same_prefix_and_error(self, data):
        """A corrupted multi-message stream must yield the same good
        prefix of messages and then the same error from both framers."""
        stream = bytearray(
            KeepaliveMessage().encode()
            + UpdateMessage(attributes=ATTRS, nlri=(Prefix.parse("192.0.2.0/24"),)).encode()
            + KeepaliveMessage().encode()
        )
        index = data.draw(st.integers(0, len(stream) - 1))
        stream[index] = data.draw(st.integers(0, 255))
        stream = bytes(stream)
        fresh_caches()
        assert stream_outcome(iter_messages, stream) == stream_outcome(
            legacy_codec.legacy_iter_messages, stream
        )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    def test_truncations_same_taxonomy(self, keep):
        wire = UpdateMessage(
            attributes=ATTRS,
            nlri=(Prefix.parse("192.0.2.0/24"), Prefix.parse("198.51.100.0/24")),
        ).encode()[:keep]
        fresh_caches()
        assert stream_outcome(iter_messages, wire) == stream_outcome(
            legacy_codec.legacy_iter_messages, wire
        )

    def test_errors_never_cached(self):
        """A corrupt UPDATE must raise identically on every attempt —
        the attribute cache only memoizes successful decodes."""
        wire = bytearray(
            UpdateMessage(attributes=ATTRS, nlri=(Prefix.parse("192.0.2.0/24"),)).encode()
        )
        wire[-4] = 0xFF  # NLRI corrupted: prefix length byte now 255
        wire = bytes(wire)
        fresh_caches()
        first = decode_outcome(decode_message, wire)
        second = decode_outcome(decode_message, wire)
        assert first == second
        assert first[0] == "error"


# -- the route-once memos ----------------------------------------------------
#
# Every memo on the data path must be indistinguishable from the
# function it fronts: same values, same errors, same cost-model counts.

P = Prefix.parse("192.0.2.0/24")


def policy_chains():
    """Builders of the chains a memo may front: the six Gao–Rexford
    ones and a hand-written chain using every attribute condition."""
    builders = [
        (lambda make=make, rel=rel: make(rel))
        for make in (import_policy, export_policy)
        for rel in Relationship
    ]
    builders.append(
        lambda: Policy(
            [
                Rule(match=Match(as_in_path=7), result=PolicyResult.REJECT),
                Rule(match=Match(community=TAG_PEER), action=Action(set_med=5)),
                Rule(
                    match=Match(max_path_length=3),
                    action=Action(prepend_as=65000, prepend_count=2, add_community=9),
                ),
            ],
            default=PolicyResult.REJECT,
        )
    )
    return builders


def apply_counted(policy, attributes):
    before = policy.evaluations
    return policy.apply(P, attributes), policy.evaluations - before


class TestMessageMemo:
    @settings(max_examples=150, deadline=None)
    @given(path_attributes(), st.lists(prefixes(), min_size=1, max_size=3, unique=True))
    def test_repeat_decode_equals_first_and_oracle(self, attributes, nlri):
        wire = UpdateMessage(attributes=attributes, nlri=tuple(nlri)).encode()
        fresh_caches()
        first = decode_message(wire)
        second = decode_message(wire)
        assert first == second == legacy_codec.legacy_decode_message(wire)
        stats = codec_cache_stats()
        assert stats["message_hits"] + stats["message_misses"] in (0, 2)
        assert stats["message_hits"] == stats["message_cache_size"]

    def test_large_messages_are_not_kept(self):
        nlri = tuple(Prefix.parse(f"10.{i}.0.0/16") for i in range(200))
        wire = UpdateMessage(attributes=ATTRS, nlri=nlri).encode()
        fresh_caches()
        assert decode_message(wire) == decode_message(wire)
        assert codec_cache_stats()["message_cache_size"] == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_malformed_frames_raise_the_same_error_every_time(self, data):
        wires = corpus_messages()
        wire = bytearray(wires[data.draw(st.integers(0, len(wires) - 1))])
        wire[data.draw(st.integers(0, len(wire) - 1))] ^= data.draw(st.integers(1, 255))
        wire = bytes(wire)
        fresh_caches()
        first = decode_outcome(decode_message, wire)
        second = decode_outcome(decode_message, wire)
        if first[0] == "error":
            assert codec_cache_stats()["message_cache_size"] == 0
        repro.bgp.reset_caches()
        assert first == second == decode_outcome(decode_message, wire)
        assert first == decode_outcome(legacy_codec.legacy_decode_message, wire)


class TestEncodeMemo:
    @settings(max_examples=150, deadline=None)
    @given(path_attributes())
    def test_warm_equals_cold(self, attributes):
        fresh_caches()
        cold = encode_attributes(attributes)
        warm = encode_attributes(attributes)
        twin = encode_attributes(replace(attributes))  # equal, not identical
        assert codec_cache_stats()["encode_hits"] == 2
        fresh_caches()
        assert cold == warm == twin == encode_attributes(replace(attributes))
        assert legacy_codec.legacy_decode_attributes(cold) == attributes


class TestPolicyMemo:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(path_attributes(), min_size=1, max_size=6))
    def test_memoised_chain_equals_a_fresh_one(self, pool):
        for build in policy_chains():
            memoised = build()
            assert memoised._memo is not None or not memoised.rules
            # Each set twice: the second application is a memo hit.
            for attributes in pool + pool:
                assert apply_counted(memoised, attributes) == apply_counted(
                    build(), attributes
                )

    def test_memo_hit_returns_the_interned_result(self):
        chain = import_policy(Relationship.PEER)
        first = chain.apply(P, ATTRS)
        assert chain.apply(P, replace(ATTRS)) is first is intern_attributes(first)

    def test_prefix_conditions_disable_the_memo(self):
        inside = PrefixMatch(Prefix.parse("10.0.0.0/8"), le=24)
        chain = Policy(
            [Rule(match=Match(prefixes=(inside,)), action=Action(set_local_pref=200))]
        )
        assert chain._memo is None
        assert chain.apply(Prefix.parse("10.1.0.0/16"), ATTRS).local_pref == 200
        assert chain.apply(Prefix.parse("11.1.0.0/16"), ATTRS).local_pref is None

    def test_ruleless_module_level_policies_hold_no_state(self):
        from repro.bgp.policy import ACCEPT_ALL, REJECT_ALL

        assert ACCEPT_ALL._memo is None and REJECT_ALL._memo is None


class TestExportRewriteMemo:
    @settings(max_examples=150, deadline=None)
    @given(path_attributes())
    def test_rewrite_equals_the_three_step_chain(self, attributes):
        local = IPv4Address.parse("10.0.0.254")
        speaker = BgpSpeaker(SpeakerConfig(65000, local, local, hold_time=0.0))
        ebgp = speaker.add_peer(PeerConfig("e", 65001, IPv4Address.parse("10.0.1.1")))
        ibgp = speaker.add_peer(PeerConfig("i", 65000, IPv4Address.parse("10.0.2.1")))
        route = RibRoute(P, attributes, "elsewhere")
        blocked = set(attributes.communities) & set(WellKnownCommunity)
        for _cold_then_memoised in range(2):
            exported = speaker._export_attributes(ebgp, route)
            if blocked:
                assert exported is None
            else:
                assert exported == replace(
                    attributes.with_prepended_as(65000).with_next_hop(local),
                    local_pref=None,
                )
                assert exported is intern_attributes(exported)
        if WellKnownCommunity.NO_ADVERTISE not in attributes.communities:
            assert speaker._export_attributes(ibgp, route) == attributes
