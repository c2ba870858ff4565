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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AsPath,
    PathAttributes,
    clear_codec_caches,
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
from repro.net.addr import IPv4Address, Prefix
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

from oracles import legacy_codec

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
