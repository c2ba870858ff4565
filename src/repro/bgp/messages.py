"""BGP-4 message wire codec (RFC 4271 §4).

All four message types encode to and decode from exact wire bytes,
including the 16-byte all-ones marker, NLRI prefix packing, and the
4096-byte maximum message size. :func:`iter_messages` frames messages
out of a TCP-like byte stream, which is how the benchmark speakers feed
the router under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bgp.attributes import (
    _MESSAGE_CACHE_CAPACITY,
    _MESSAGE_CACHE_MAX_LEN,
    PathAttributes,
    _cache_counters,
    _message_cache,
    _wire_cache,
    decode_attributes,
    decode_attributes_cached,
    encode_attributes,
)
from repro.bgp.errors import (
    HeaderSubcode,
    OpenSubcode,
    UpdateSubcode,
    header_error,
    open_error,
    update_error,
)
from repro.net.addr import IPv4Address, Prefix

MARKER = b"\xff" * 16
HEADER_LEN = 19
MAX_MESSAGE_LEN = 4096

MSG_OPEN = 1
MSG_UPDATE = 2
MSG_NOTIFICATION = 3
MSG_KEEPALIVE = 4

BGP_VERSION = 4


@dataclass(frozen=True, slots=True)
class Route:
    """A (prefix, attributes) pair: the unit the benchmark calls a transaction."""

    prefix: Prefix
    attributes: PathAttributes


def encode_nlri(prefixes: "list[Prefix] | tuple[Prefix, ...]") -> bytes:
    """Pack prefixes into NLRI wire format: length octet + minimal bytes."""
    out = bytearray()
    for network, length in prefixes:
        out.append(length)
        out += network.to_bytes(4, "big")[: (length + 7) >> 3]
    return bytes(out)


#: Decoded-prefix flyweight cache keyed by ``network * 64 + length``.
#: NLRI repeats heavily across a session (flap storms re-announce the
#: same table), and a hit skips both the ``Prefix`` construction and
#: its canonical-form validation. Bounded: when full, new prefixes are
#: simply built uncached — behaviour stays deterministic. Fork-safety
#: contract: the cache is value-keyed pure memoization, so a worker
#: process forking with any warmth computes identical prefixes; see the
#: contract note in :mod:`repro.bgp.attributes`.
_PREFIX_CACHE_CAPACITY = 1 << 17
_prefix_cache: dict[int, Prefix] = {}


def clear_prefix_cache() -> None:
    """Reset the decoded-prefix flyweight cache (tests, benchmarks, and
    worker-process start — clearing is the fork-safety contract)."""
    _prefix_cache.clear()


def _decode_nlri_range(data: bytes, offset: int, end: int) -> list[Prefix]:
    """Batched NLRI parse over ``data[offset:end]`` without sub-slicing.

    The hot loop reads straight out of the enclosing message buffer —
    no per-prefix byte-string allocation — and resolves each
    (network, length) through the prefix flyweight cache.
    """
    prefixes: list[Prefix] = []
    append = prefixes.append
    cache = _prefix_cache
    cache_get = cache.get
    while offset < end:
        length = data[offset]
        offset += 1
        if length > 32:
            raise update_error(
                UpdateSubcode.INVALID_NETWORK_FIELD, message=f"prefix length {length} > 32"
            )
        byte_count = (length + 7) >> 3
        if offset + byte_count > end:
            raise update_error(
                UpdateSubcode.INVALID_NETWORK_FIELD, message="truncated NLRI prefix"
            )
        if byte_count == 3:
            network = (data[offset] << 24) | (data[offset + 1] << 16) | (data[offset + 2] << 8)
        elif byte_count == 2:
            network = (data[offset] << 24) | (data[offset + 1] << 16)
        elif byte_count == 4:
            network = (
                (data[offset] << 24)
                | (data[offset + 1] << 16)
                | (data[offset + 2] << 8)
                | data[offset + 3]
            )
        elif byte_count == 1:
            network = data[offset] << 24
        else:
            network = 0
        offset += byte_count
        key = (network << 6) | length
        prefix = cache_get(key)
        if prefix is None:
            if length and network & ((1 << (32 - length)) - 1):
                raise update_error(
                    UpdateSubcode.INVALID_NETWORK_FIELD,
                    message=f"host bits set in NLRI {IPv4Address(network)}/{length}",
                )
            prefix = Prefix(network, length)
            if len(cache) < _PREFIX_CACHE_CAPACITY:
                cache[key] = prefix
        append(prefix)
    return prefixes


def decode_nlri(data: bytes) -> list[Prefix]:
    """Unpack NLRI wire format into prefixes, validating lengths and
    rejecting non-zero trailing host bits (RFC 4271 §6.3)."""
    return _decode_nlri_range(data, 0, len(data))


#: An UPDATE's octets outside its withdrawn routes, attributes and NLRI:
#: the header and the two length fields (RFC 4271 §4.3).
UPDATE_OVERHEAD = HEADER_LEN + 4
#: The most octets one prefix takes in NLRI or withdrawn routes: a
#: length octet and a whole address.
MAX_PREFIX_OCTETS = 5


def prefix_octets(prefix: Prefix) -> int:
    """Octets *prefix* takes in NLRI or withdrawn routes."""
    return 1 + ((prefix.length + 7) >> 3)


def nlri_room(attributes: PathAttributes | None) -> int:
    """Octets one UPDATE carrying *attributes* has left for its NLRI —
    for its withdrawn routes when *attributes* is None."""
    used = UPDATE_OVERHEAD
    if attributes is not None:
        used += len(encode_attributes(attributes))
    return MAX_MESSAGE_LEN - used


class OversizeAttributesError(ValueError):
    """An attribute set too large for an UPDATE carrying even one of
    its prefixes: no packing can send it."""


def nlri_chunks(
    prefixes: "Sequence[Prefix]", limit: int, attributes: PathAttributes | None
) -> "list[tuple[Prefix, ...]]":
    """*prefixes* cut, in order, into the NLRI of consecutive UPDATEs
    carrying *attributes* (their withdrawn routes when None): at most
    *limit* prefixes and at most :func:`nlri_room` octets each. Raises
    :class:`OversizeAttributesError` when a prefix cannot fit even
    alone."""
    room = nlri_room(attributes)
    if limit * MAX_PREFIX_OCTETS <= room:
        # No run of *limit* prefixes can overflow: cut by count alone.
        return [tuple(prefixes[start : start + limit]) for start in range(0, len(prefixes), limit)]
    chunks = []
    start = size = 0
    for index, prefix in enumerate(prefixes):
        octets = prefix_octets(prefix)
        if octets > room:
            raise OversizeAttributesError(
                f"{MAX_MESSAGE_LEN - UPDATE_OVERHEAD - room}-octet attributes "
                f"leave no room for {prefix} in a {MAX_MESSAGE_LEN}-octet UPDATE"
            )
        if index - start == limit or size + octets > room:
            chunks.append(tuple(prefixes[start:index]))
            start, size = index, 0
        size += octets
    if prefixes:
        chunks.append(tuple(prefixes[start:]))
    return chunks


def _frame(msg_type: int, body: bytes) -> bytes:
    length = HEADER_LEN + len(body)
    if length > MAX_MESSAGE_LEN:
        raise ValueError(f"message too long: {length} > {MAX_MESSAGE_LEN}")
    return MARKER + length.to_bytes(2, "big") + bytes((msg_type,)) + body


@dataclass(frozen=True, slots=True)
class OpenMessage:
    """OPEN: version, my-AS, hold time, BGP identifier (RFC 4271 §4.2).

    Optional parameters are carried opaquely; this implementation does
    not negotiate capabilities (plain BGP-4, as XORP 1.3 spoke it).
    """

    asn: int
    hold_time: int
    bgp_identifier: IPv4Address
    optional_parameters: bytes = b""

    def encode(self) -> bytes:
        if not 0 < self.asn <= 0xFFFF:
            raise ValueError(f"ASN out of range: {self.asn}")
        if not 0 <= self.hold_time <= 0xFFFF:
            raise ValueError(f"hold time out of range: {self.hold_time}")
        if len(self.optional_parameters) > 255:
            raise ValueError("optional parameters too long")
        body = (
            bytes((BGP_VERSION,))
            + self.asn.to_bytes(2, "big")
            + self.hold_time.to_bytes(2, "big")
            + self.bgp_identifier.to_bytes()
            + bytes((len(self.optional_parameters),))
            + self.optional_parameters
        )
        return _frame(MSG_OPEN, body)

    @classmethod
    def decode_body(cls, body: bytes) -> "OpenMessage":
        if len(body) < 10:
            raise open_error(OpenSubcode.UNSUPPORTED_VERSION_NUMBER, message="truncated OPEN")
        version = body[0]
        if version != BGP_VERSION:
            raise open_error(
                OpenSubcode.UNSUPPORTED_VERSION_NUMBER,
                data=BGP_VERSION.to_bytes(2, "big"),
                message=f"unsupported version {version}",
            )
        asn = int.from_bytes(body[1:3], "big")
        if asn == 0:
            raise open_error(OpenSubcode.BAD_PEER_AS, message="peer AS 0")
        hold_time = int.from_bytes(body[3:5], "big")
        if hold_time in (1, 2):
            raise open_error(
                OpenSubcode.UNACCEPTABLE_HOLD_TIME, message=f"hold time {hold_time}"
            )
        identifier = IPv4Address.from_bytes(body[5:9])
        if identifier.value == 0:
            raise open_error(OpenSubcode.BAD_BGP_IDENTIFIER, message="identifier 0.0.0.0")
        opt_len = body[9]
        if 10 + opt_len != len(body):
            raise open_error(
                OpenSubcode.UNSUPPORTED_OPTIONAL_PARAMETER,
                message="optional parameter length mismatch",
            )
        return cls(asn, hold_time, identifier, bytes(body[10:]))


@dataclass(frozen=True, slots=True)
class UpdateMessage:
    """UPDATE: withdrawn routes + path attributes + NLRI (RFC 4271 §4.3)."""

    withdrawn: tuple[Prefix, ...] = ()
    attributes: PathAttributes | None = None
    nlri: tuple[Prefix, ...] = ()

    def encode(self) -> bytes:
        """The wire bytes. Small UPDATEs are memoized by value (the
        mirror of :func:`decode_message`'s memo, same bounds, same
        contract: value-keyed, never evicting, errors never cached)."""
        wire = _wire_cache.get(self)
        if wire is not None:
            _cache_counters["wire_hits"] += 1
            return wire
        _cache_counters["wire_misses"] += 1
        withdrawn_bytes = encode_nlri(self.withdrawn)
        if self.nlri and self.attributes is None:
            raise ValueError("UPDATE with NLRI requires path attributes")
        attr_bytes = encode_attributes(self.attributes) if self.attributes else b""
        nlri_bytes = encode_nlri(self.nlri)
        body = (
            len(withdrawn_bytes).to_bytes(2, "big")
            + withdrawn_bytes
            + len(attr_bytes).to_bytes(2, "big")
            + attr_bytes
            + nlri_bytes
        )
        wire = _frame(MSG_UPDATE, body)
        if len(wire) <= _MESSAGE_CACHE_MAX_LEN and len(_wire_cache) < _MESSAGE_CACHE_CAPACITY:
            _wire_cache[self] = wire
        return wire

    @classmethod
    def decode_body(cls, body: bytes) -> "UpdateMessage":
        if len(body) < 4:
            raise update_error(
                UpdateSubcode.MALFORMED_ATTRIBUTE_LIST, message="truncated UPDATE"
            )
        withdrawn_len = int.from_bytes(body[0:2], "big")
        attrs_start = 2 + withdrawn_len
        if attrs_start + 2 > len(body):
            raise update_error(
                UpdateSubcode.MALFORMED_ATTRIBUTE_LIST,
                message="withdrawn length overruns message",
            )
        withdrawn = _decode_nlri_range(body, 2, attrs_start)
        attr_len = int.from_bytes(body[attrs_start : attrs_start + 2], "big")
        nlri_start = attrs_start + 2 + attr_len
        if nlri_start > len(body):
            raise update_error(
                UpdateSubcode.MALFORMED_ATTRIBUTE_LIST,
                message="attribute length overruns message",
            )
        nlri = _decode_nlri_range(body, nlri_start, len(body))
        attributes: PathAttributes | None = None
        if attr_len or nlri:
            # Zero-copy: hand the attribute blob to the memoizing decoder
            # as a read-only view of the message body. A repeated blob
            # (flap storms, table dumps sharing one path) skips parsing
            # entirely and returns the interned flyweight.
            attributes = decode_attributes_cached(
                memoryview(body)[attrs_start + 2 : nlri_start],
                require_mandatory=bool(nlri),
            )
        return cls(tuple(withdrawn), attributes, tuple(nlri))

    def routes(self) -> list[Route]:
        """The announced routes carried by this UPDATE."""
        if not self.nlri:
            return []
        assert self.attributes is not None
        return [Route(prefix, self.attributes) for prefix in self.nlri]

    def transaction_count(self) -> int:
        """Prefix-level changes in this message — the benchmark's unit."""
        return len(self.withdrawn) + len(self.nlri)


@dataclass(frozen=True, slots=True)
class KeepaliveMessage:
    """KEEPALIVE: header only (RFC 4271 §4.4)."""

    def encode(self) -> bytes:
        return _frame(MSG_KEEPALIVE, b"")


@dataclass(frozen=True, slots=True)
class NotificationMessage:
    """NOTIFICATION: error code, subcode, diagnostic data (RFC 4271 §4.5)."""

    code: int
    subcode: int = 0
    data: bytes = b""

    def encode(self) -> bytes:
        return _frame(MSG_NOTIFICATION, bytes((self.code, self.subcode)) + self.data)

    @classmethod
    def decode_body(cls, body: bytes) -> "NotificationMessage":
        if len(body) < 2:
            raise header_error(
                HeaderSubcode.BAD_MESSAGE_LENGTH, message="truncated NOTIFICATION"
            )
        return cls(body[0], body[1], bytes(body[2:]))


BgpMessage = OpenMessage | UpdateMessage | KeepaliveMessage | NotificationMessage

_MIN_LEN = {
    MSG_OPEN: HEADER_LEN + 10,
    MSG_UPDATE: HEADER_LEN + 4,
    MSG_NOTIFICATION: HEADER_LEN + 2,
    MSG_KEEPALIVE: HEADER_LEN,
}


def decode_message(data: bytes) -> BgpMessage:
    """Decode exactly one framed message from *data* (full message bytes).

    Small messages are memoized by their exact wire bytes (messages are
    frozen, so one instance serves every receiver); the cache lives
    with the other codec caches in :mod:`repro.bgp.attributes`, under
    the same contract: value-keyed, bounded, errors never cached.
    """
    cacheable = len(data) <= _MESSAGE_CACHE_MAX_LEN and type(data) is bytes
    if cacheable:
        cached = _message_cache.get(data)
        if cached is not None:
            _cache_counters["message_hits"] += 1
            return cached  # type: ignore[return-value]
        _cache_counters["message_misses"] += 1
    message, consumed = _decode_one(data)
    if consumed != len(data):
        raise header_error(
            HeaderSubcode.BAD_MESSAGE_LENGTH,
            message=f"trailing bytes after message: {len(data) - consumed}",
        )
    if cacheable and len(_message_cache) < _MESSAGE_CACHE_CAPACITY:
        _message_cache[data] = message
    return message


def _decode_one(data: bytes) -> tuple[BgpMessage, int]:
    if len(data) < HEADER_LEN:
        raise header_error(HeaderSubcode.BAD_MESSAGE_LENGTH, message="short header")
    if data[:16] != MARKER:
        raise header_error(
            HeaderSubcode.CONNECTION_NOT_SYNCHRONIZED, message="bad marker"
        )
    length = int.from_bytes(data[16:18], "big")
    msg_type = data[18]
    if msg_type not in _MIN_LEN:
        raise header_error(
            HeaderSubcode.BAD_MESSAGE_TYPE,
            data=bytes((msg_type,)),
            message=f"bad message type {msg_type}",
        )
    if not _MIN_LEN[msg_type] <= length <= MAX_MESSAGE_LEN:
        raise header_error(
            HeaderSubcode.BAD_MESSAGE_LENGTH,
            data=length.to_bytes(2, "big"),
            message=f"bad length {length} for type {msg_type}",
        )
    if msg_type == MSG_KEEPALIVE and length != HEADER_LEN:
        raise header_error(
            HeaderSubcode.BAD_MESSAGE_LENGTH,
            data=length.to_bytes(2, "big"),
            message="KEEPALIVE with a body",
        )
    if len(data) < length:
        raise header_error(HeaderSubcode.BAD_MESSAGE_LENGTH, message="truncated body")
    body = data[HEADER_LEN:length]
    if msg_type == MSG_OPEN:
        return OpenMessage.decode_body(body), length
    if msg_type == MSG_UPDATE:
        return UpdateMessage.decode_body(body), length
    if msg_type == MSG_NOTIFICATION:
        return NotificationMessage.decode_body(body), length
    return KeepaliveMessage(), length


def iter_messages(stream: bytes):
    """Frame and decode messages from a contiguous byte stream.

    Yields ``(message, wire_length)`` pairs; raises on the first framing
    or protocol error, mirroring how a session would be torn down.
    """
    offset = 0
    total = len(stream)
    while offset < total:
        # Peek the declared length so only one message's bytes are
        # sliced out per iteration (O(n) over the stream instead of the
        # old copy-the-remainder O(n²)). Clamping the slice to at least
        # a header keeps _decode_one's error taxonomy identical: the
        # marker is still checked before a bad declared length.
        if offset + HEADER_LEN <= total:
            length = (stream[offset + 16] << 8) | stream[offset + 17]
            end = offset + (length if length > HEADER_LEN else HEADER_LEN)
            if end > total:
                end = total
        else:
            end = total
        message, consumed = _decode_one(stream[offset:end])
        yield message, consumed
        offset += consumed
