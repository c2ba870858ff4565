"""Unit tests for the BGP message codec and stream framing."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.errors import BgpError, ErrorCode, HeaderSubcode
from repro.bgp.messages import (
    HEADER_LEN,
    MARKER,
    MAX_MESSAGE_LEN,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    OversizeAttributesError,
    UpdateMessage,
    clear_prefix_cache,
    decode_message,
    decode_nlri,
    encode_nlri,
    nlri_chunks,
)
from repro.bgp.speaker import _Framer
from repro.net.addr import IPv4Address, Prefix

NH = IPv4Address.parse("10.0.0.1")
ATTRS = PathAttributes(as_path=AsPath.from_asns([65001]), next_hop=NH)


class TestNlri:
    def test_round_trip_mixed_lengths(self):
        prefixes = [
            Prefix.parse("0.0.0.0/0"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.128.0.0/9"),
            Prefix.parse("192.0.2.0/24"),
            Prefix.parse("192.0.2.1/32"),
        ]
        assert decode_nlri(encode_nlri(prefixes)) == prefixes

    def test_minimal_byte_packing(self):
        # /8 needs 1 byte, /24 needs 3, /32 needs 4, /0 needs 0.
        assert len(encode_nlri([Prefix.parse("10.0.0.0/8")])) == 2
        assert len(encode_nlri([Prefix.parse("192.0.2.0/24")])) == 4
        assert len(encode_nlri([Prefix.parse("192.0.2.1/32")])) == 5
        assert len(encode_nlri([Prefix.parse("0.0.0.0/0")])) == 1

    def test_decode_rejects_length_over_32(self):
        with pytest.raises(BgpError):
            decode_nlri(b"\x21\x0a\x00\x00\x00\x01")

    def test_decode_rejects_truncation(self):
        with pytest.raises(BgpError):
            decode_nlri(b"\x18\x0a\x00")

    def test_decode_rejects_host_bits(self):
        # /8 prefix with bits beyond the mask set in its single byte? Not
        # possible in one byte; use /9 with low bit of second byte set.
        with pytest.raises(BgpError):
            decode_nlri(b"\x09\x0a\x40")


class TestNlriChunks:
    """The one cut both the speaker's flush and the stream builder use."""

    HOSTS = [Prefix((10 << 24) | i, 32) for i in range(2000)]  # 5 octets each

    def test_nothing_to_cut_is_no_message(self):
        assert nlri_chunks([], 500, ATTRS) == []
        assert nlri_chunks([], 1, None) == []

    def test_count_binds_below_the_octet_limit(self):
        chunks = nlri_chunks(self.HOSTS[:7], 3, ATTRS)
        assert chunks == [tuple(self.HOSTS[0:3]), tuple(self.HOSTS[3:6]), (self.HOSTS[6],)]

    @pytest.mark.parametrize("attributes", [ATTRS, None])
    def test_octets_bind_above_it(self, attributes):
        chunks = nlri_chunks(self.HOSTS, 1000, attributes)
        assert [p for chunk in chunks for p in chunk] == self.HOSTS
        for chunk in chunks:
            if attributes is None:
                update = UpdateMessage(withdrawn=chunk)
            else:
                update = UpdateMessage(attributes=attributes, nlri=chunk)
            assert len(update.encode()) <= MAX_MESSAGE_LEN
        assert len(chunks[0]) < 1000

    def test_attributes_that_leave_no_room_raise(self):
        huge = PathAttributes(next_hop=NH, communities=tuple(range(1, 1021)))
        with pytest.raises(OversizeAttributesError, match="no room for 10.0.0.0/32"):
            nlri_chunks(self.HOSTS[:1], 1, huge)


class TestOpenMessage:
    def test_round_trip(self):
        msg = OpenMessage(65001, 90, IPv4Address.parse("1.2.3.4"), b"\x01\x02")
        decoded = decode_message(msg.encode())
        assert decoded == msg

    def test_hold_time_zero_allowed(self):
        msg = OpenMessage(65001, 0, IPv4Address.parse("1.2.3.4"))
        assert decode_message(msg.encode()).hold_time == 0

    def test_rejects_hold_time_one_and_two(self):
        for hold in (1, 2):
            wire = OpenMessage(65001, hold, IPv4Address.parse("1.2.3.4")).encode()
            with pytest.raises(BgpError):
                decode_message(wire)

    def test_rejects_as_zero(self):
        wire = bytearray(OpenMessage(65001, 90, IPv4Address.parse("1.2.3.4")).encode())
        wire[HEADER_LEN + 1 : HEADER_LEN + 3] = b"\x00\x00"
        with pytest.raises(BgpError):
            decode_message(bytes(wire))

    def test_rejects_identifier_zero(self):
        wire = bytearray(OpenMessage(65001, 90, IPv4Address.parse("1.2.3.4")).encode())
        wire[HEADER_LEN + 5 : HEADER_LEN + 9] = b"\x00" * 4
        with pytest.raises(BgpError):
            decode_message(bytes(wire))

    def test_rejects_wrong_version(self):
        wire = bytearray(OpenMessage(65001, 90, IPv4Address.parse("1.2.3.4")).encode())
        wire[HEADER_LEN] = 3
        with pytest.raises(BgpError):
            decode_message(bytes(wire))

    def test_rejects_optional_parameter_mismatch(self):
        wire = bytearray(OpenMessage(65001, 90, IPv4Address.parse("1.2.3.4")).encode())
        wire[HEADER_LEN + 9] = 5  # claims 5 bytes of options, has none
        with pytest.raises(BgpError):
            decode_message(bytes(wire))

    def test_encode_validates_asn(self):
        with pytest.raises(ValueError):
            OpenMessage(0, 90, IPv4Address.parse("1.2.3.4")).encode()
        with pytest.raises(ValueError):
            OpenMessage(70000, 90, IPv4Address.parse("1.2.3.4")).encode()


class TestUpdateMessage:
    def test_announce_round_trip(self):
        msg = UpdateMessage(
            attributes=ATTRS,
            nlri=(Prefix.parse("192.0.2.0/24"), Prefix.parse("198.51.100.0/24")),
        )
        assert decode_message(msg.encode()) == msg

    def test_withdraw_round_trip(self):
        msg = UpdateMessage(withdrawn=(Prefix.parse("192.0.2.0/24"),))
        assert decode_message(msg.encode()) == msg

    def test_mixed_round_trip(self):
        msg = UpdateMessage(
            withdrawn=(Prefix.parse("203.0.113.0/24"),),
            attributes=ATTRS,
            nlri=(Prefix.parse("192.0.2.0/24"),),
        )
        assert decode_message(msg.encode()) == msg

    def test_empty_update(self):
        msg = UpdateMessage()
        decoded = decode_message(msg.encode())
        assert decoded.withdrawn == () and decoded.nlri == ()
        assert decoded.attributes is None

    def test_nlri_without_attributes_rejected_on_encode(self):
        with pytest.raises(ValueError):
            UpdateMessage(nlri=(Prefix.parse("192.0.2.0/24"),)).encode()

    def test_transaction_count(self):
        msg = UpdateMessage(
            withdrawn=(Prefix.parse("203.0.113.0/24"),),
            attributes=ATTRS,
            nlri=(Prefix.parse("192.0.2.0/24"), Prefix.parse("198.51.100.0/24")),
        )
        assert msg.transaction_count() == 3

    def test_routes(self):
        msg = UpdateMessage(attributes=ATTRS, nlri=(Prefix.parse("192.0.2.0/24"),))
        routes = msg.routes()
        assert len(routes) == 1
        assert routes[0].prefix == Prefix.parse("192.0.2.0/24")
        assert routes[0].attributes == ATTRS

    def test_500_prefix_update_fits(self):
        prefixes = tuple(
            Prefix.parse(f"{10 + i // 256}.{i % 256}.0.0/24") for i in range(500)
        )
        wire = UpdateMessage(attributes=ATTRS, nlri=prefixes).encode()
        assert len(wire) <= MAX_MESSAGE_LEN
        assert decode_message(wire).nlri == prefixes

    def test_withdrawn_overrun_rejected(self):
        msg = UpdateMessage(withdrawn=(Prefix.parse("192.0.2.0/24"),)).encode()
        wire = bytearray(msg)
        wire[HEADER_LEN : HEADER_LEN + 2] = (200).to_bytes(2, "big")
        with pytest.raises(BgpError):
            decode_message(bytes(wire))


class TestKeepaliveAndNotification:
    def test_keepalive_round_trip(self):
        assert decode_message(KeepaliveMessage().encode()) == KeepaliveMessage()

    def test_keepalive_with_body_rejected(self):
        wire = bytearray(KeepaliveMessage().encode())
        wire[16:18] = (HEADER_LEN + 1).to_bytes(2, "big")
        wire.append(0)
        with pytest.raises(BgpError):
            decode_message(bytes(wire))

    def test_notification_round_trip(self):
        msg = NotificationMessage(ErrorCode.CEASE, 2, b"bye")
        assert decode_message(msg.encode()) == msg


class TestFraming:
    def test_bad_marker(self):
        wire = bytearray(KeepaliveMessage().encode())
        wire[0] = 0
        with pytest.raises(BgpError) as excinfo:
            decode_message(bytes(wire))
        assert excinfo.value.notification.subcode == HeaderSubcode.CONNECTION_NOT_SYNCHRONIZED

    def test_bad_type(self):
        wire = bytearray(KeepaliveMessage().encode())
        wire[18] = 9
        with pytest.raises(BgpError) as excinfo:
            decode_message(bytes(wire))
        assert excinfo.value.notification.subcode == HeaderSubcode.BAD_MESSAGE_TYPE

    def test_truncated_body(self):
        wire = OpenMessage(65001, 90, IPv4Address.parse("1.2.3.4")).encode()
        with pytest.raises(BgpError):
            decode_message(wire[:-2])

    def test_trailing_bytes_rejected(self):
        wire = KeepaliveMessage().encode() + b"\x00"
        with pytest.raises(BgpError):
            decode_message(wire)

    def test_framer_splits_stream(self):
        stream = (
            OpenMessage(65001, 90, IPv4Address.parse("1.2.3.4")).encode()
            + KeepaliveMessage().encode()
            + UpdateMessage(attributes=ATTRS, nlri=(Prefix.parse("192.0.2.0/24"),)).encode()
        )
        messages = [m for m, _length in _Framer().push(stream)]
        assert len(messages) == 3
        assert isinstance(messages[0], OpenMessage)
        assert isinstance(messages[1], KeepaliveMessage)
        assert isinstance(messages[2], UpdateMessage)

    def test_framer_reports_lengths(self):
        keepalive = KeepaliveMessage().encode()
        lengths = [length for _m, length in _Framer().push(keepalive * 3)]
        assert lengths == [HEADER_LEN] * 3

    def test_marker_constant(self):
        assert MARKER == b"\xff" * 16
        assert len(MARKER) == 16

    def test_bad_marker_reported_before_bad_length(self):
        """The framer reads the declared length to cut the stream, but
        a corrupt marker must still win the error race — RFC 4271
        checks synchronization before the length field."""
        wire = bytearray(KeepaliveMessage().encode())
        wire[0] = 0  # marker corrupt
        wire[16:18] = (5).to_bytes(2, "big")  # length also absurd (< header)
        with pytest.raises(BgpError) as excinfo:
            next(iter(_Framer().push(bytes(wire))))
        assert (
            excinfo.value.notification.subcode
            == HeaderSubcode.CONNECTION_NOT_SYNCHRONIZED
        )

    def test_framer_matches_per_message_decode(self):
        updates = [
            UpdateMessage(attributes=ATTRS, nlri=(Prefix.parse(f"10.{i}.0.0/16"),))
            for i in range(5)
        ]
        stream = b"".join(m.encode() for m in updates)
        assert [m for m, _length in _Framer().push(stream)] == updates


class TestPrefixCache:
    def test_repeat_decode_reuses_prefix_objects(self):
        clear_prefix_cache()
        wire = encode_nlri([Prefix.parse("192.0.2.0/24"), Prefix.parse("10.0.0.0/8")])
        first = decode_nlri(wire)
        second = decode_nlri(wire)
        assert first == second
        for a, b in zip(first, second):
            assert a is b, "cached decode must return the interned Prefix"

    def test_host_bits_rejected_every_time(self):
        # The cache only holds valid prefixes, so the invalid encoding
        # must raise on the second decode exactly as on the first.
        clear_prefix_cache()
        for _ in range(2):
            with pytest.raises(BgpError):
                decode_nlri(b"\x09\x0a\x40")

    def test_clear_prefix_cache_resets_identity(self):
        wire = encode_nlri([Prefix.parse("198.51.100.0/24")])
        (first,) = decode_nlri(wire)
        clear_prefix_cache()
        (second,) = decode_nlri(wire)
        assert first == second
        assert first is not second
