"""The pre-optimization UPDATE decode path, frozen as a reference.

This module preserves, byte-for-byte in behaviour, the straightforward
slice-per-field decoder the repository shipped before the zero-copy
path landed in :mod:`repro.bgp.messages`. It is a differential oracle:
the codec equivalence suite (``tests/test_perf_codec_equivalence.py``)
and the fuzz suite (``tests/test_fuzz_robustness.py``) replay valid and
corrupt corpora through both decoders and assert identical messages and
identical error taxonomy. The 5.4x decode ratio once re-timed against
it on every ``bgpbench perf`` run is recorded in
``benchmarks/BENCH_8.json``.

It intentionally allocates the way the old code did (sub-``bytes`` per
attribute, per-prefix slicing, no caches); do not "fix" that — an
independent, obviously-correct parse is the point. Only the shared
dataclasses and error constructors are imported; all parsing logic is
self-contained.
"""

from __future__ import annotations

from repro.bgp.attributes import (
    Aggregator,
    AsPath,
    AttrFlag,
    AttrType,
    Origin,
    PathAttributes,
    UnknownAttribute,
)
from repro.bgp.errors import (
    HeaderSubcode,
    UpdateSubcode,
    header_error,
    update_error,
)
from repro.bgp.messages import (
    HEADER_LEN,
    MARKER,
    MAX_MESSAGE_LEN,
    MSG_KEEPALIVE,
    MSG_NOTIFICATION,
    MSG_OPEN,
    MSG_UPDATE,
    BgpMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.net.addr import IPv4Address, Prefix

__all__ = [
    "legacy_decode_nlri",
    "legacy_decode_attributes",
    "legacy_decode_update_body",
    "legacy_decode_message",
    "legacy_iter_messages",
]


def legacy_decode_nlri(data: bytes) -> "list[Prefix]":
    """Unpack NLRI wire format into prefixes (pre-optimization path)."""
    prefixes: list[Prefix] = []
    offset = 0
    while offset < len(data):
        length = data[offset]
        offset += 1
        if length > 32:
            raise update_error(
                UpdateSubcode.INVALID_NETWORK_FIELD, message=f"prefix length {length} > 32"
            )
        byte_count = (length + 7) // 8
        if offset + byte_count > len(data):
            raise update_error(
                UpdateSubcode.INVALID_NETWORK_FIELD, message="truncated NLRI prefix"
            )
        raw = data[offset : offset + byte_count]
        offset += byte_count
        network = int.from_bytes(raw + b"\x00" * (4 - byte_count), "big")
        if length and network & ((1 << (32 - length)) - 1):
            raise update_error(
                UpdateSubcode.INVALID_NETWORK_FIELD,
                message=f"host bits set in NLRI {IPv4Address(network)}/{length}",
            )
        prefixes.append(Prefix(network, length))
    return prefixes


def _require_length(type_code: int, value: bytes, expected: int) -> None:
    if len(value) != expected:
        raise update_error(
            UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
            data=bytes((type_code,)),
            message=f"attribute {type_code}: expected {expected} bytes, got {len(value)}",
        )


def _check_flags(type_code: int, flags: int, well_known: bool) -> None:
    optional = bool(flags & AttrFlag.OPTIONAL)
    transitive = bool(flags & AttrFlag.TRANSITIVE)
    if well_known and (optional or not transitive):
        raise update_error(
            UpdateSubcode.ATTRIBUTE_FLAGS_ERROR,
            data=bytes((flags, type_code)),
            message=f"well-known attribute {type_code} with bad flags {flags:#04x}",
        )
    if not well_known and not optional:
        raise update_error(
            UpdateSubcode.ATTRIBUTE_FLAGS_ERROR,
            data=bytes((flags, type_code)),
            message=f"optional attribute {type_code} missing OPTIONAL flag",
        )


def legacy_decode_attributes(
    data: bytes, require_mandatory: bool = True
) -> PathAttributes:
    """Decode a wire attribute list (pre-optimization path, no caches)."""
    origin: Origin | None = None
    as_path: AsPath | None = None
    next_hop: IPv4Address | None = None
    med: int | None = None
    local_pref: int | None = None
    atomic_aggregate = False
    aggregator: Aggregator | None = None
    communities: tuple[int, ...] = ()
    unknown: list[UnknownAttribute] = []
    seen: set[int] = set()

    offset = 0
    while offset < len(data):
        if offset + 3 > len(data):
            raise update_error(
                UpdateSubcode.MALFORMED_ATTRIBUTE_LIST, message="truncated attribute header"
            )
        flags, type_code = data[offset], data[offset + 1]
        offset += 2
        if flags & AttrFlag.EXTENDED_LENGTH:
            if offset + 2 > len(data):
                raise update_error(
                    UpdateSubcode.MALFORMED_ATTRIBUTE_LIST, message="truncated extended length"
                )
            length = int.from_bytes(data[offset : offset + 2], "big")
            offset += 2
        else:
            length = data[offset]
            offset += 1
        if offset + length > len(data):
            raise update_error(
                UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
                message=f"attribute {type_code} overruns attribute list",
            )
        value = data[offset : offset + length]
        offset += length

        if type_code in seen:
            raise update_error(
                UpdateSubcode.MALFORMED_ATTRIBUTE_LIST,
                message=f"duplicate attribute {type_code}",
            )
        seen.add(type_code)

        if type_code == AttrType.ORIGIN:
            _check_flags(type_code, flags, well_known=True)
            _require_length(type_code, value, 1)
            if value[0] > 2:
                raise update_error(
                    UpdateSubcode.INVALID_ORIGIN_ATTRIBUTE,
                    data=value,
                    message=f"bad ORIGIN {value[0]}",
                )
            origin = Origin(value[0])
        elif type_code == AttrType.AS_PATH:
            _check_flags(type_code, flags, well_known=True)
            as_path = AsPath.decode(value)
        elif type_code == AttrType.NEXT_HOP:
            _check_flags(type_code, flags, well_known=True)
            _require_length(type_code, value, 4)
            next_hop = IPv4Address.from_bytes(value)
            if next_hop.value == 0 or next_hop.value == 0xFFFFFFFF:
                raise update_error(
                    UpdateSubcode.INVALID_NEXT_HOP_ATTRIBUTE,
                    data=value,
                    message=f"invalid NEXT_HOP {next_hop}",
                )
        elif type_code == AttrType.MULTI_EXIT_DISC:
            _check_flags(type_code, flags, well_known=False)
            _require_length(type_code, value, 4)
            med = int.from_bytes(value, "big")
        elif type_code == AttrType.LOCAL_PREF:
            _require_length(type_code, value, 4)
            local_pref = int.from_bytes(value, "big")
        elif type_code == AttrType.ATOMIC_AGGREGATE:
            _require_length(type_code, value, 0)
            atomic_aggregate = True
        elif type_code == AttrType.AGGREGATOR:
            _check_flags(type_code, flags, well_known=False)
            aggregator = Aggregator.decode(value)
        elif type_code == AttrType.COMMUNITIES:
            _check_flags(type_code, flags, well_known=False)
            if length % 4:
                raise update_error(
                    UpdateSubcode.OPTIONAL_ATTRIBUTE_ERROR,
                    message="COMMUNITIES length not a multiple of 4",
                )
            communities = tuple(
                int.from_bytes(value[i : i + 4], "big") for i in range(0, length, 4)
            )
        else:
            if not flags & AttrFlag.OPTIONAL:
                raise update_error(
                    UpdateSubcode.UNRECOGNIZED_WELL_KNOWN_ATTRIBUTE,
                    data=bytes((flags, type_code)),
                    message=f"unrecognised well-known attribute {type_code}",
                )
            if flags & AttrFlag.TRANSITIVE:
                unknown.append(
                    UnknownAttribute(type_code, flags | AttrFlag.PARTIAL, bytes(value))
                )

    if require_mandatory:
        for name, present, code in (
            ("ORIGIN", origin is not None, AttrType.ORIGIN),
            ("AS_PATH", as_path is not None, AttrType.AS_PATH),
            ("NEXT_HOP", next_hop is not None, AttrType.NEXT_HOP),
        ):
            if not present:
                raise update_error(
                    UpdateSubcode.MISSING_WELL_KNOWN_ATTRIBUTE,
                    data=bytes((code,)),
                    message=f"missing mandatory attribute {name}",
                )

    return PathAttributes(
        origin=origin if origin is not None else Origin.IGP,
        as_path=as_path if as_path is not None else AsPath(),
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
        atomic_aggregate=atomic_aggregate,
        aggregator=aggregator,
        communities=communities,
        unknown=tuple(unknown),
    )


def legacy_decode_update_body(body: bytes) -> UpdateMessage:
    """Decode an UPDATE body (pre-optimization path)."""
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
    withdrawn = legacy_decode_nlri(body[2:attrs_start])
    attr_len = int.from_bytes(body[attrs_start : attrs_start + 2], "big")
    nlri_start = attrs_start + 2 + attr_len
    if nlri_start > len(body):
        raise update_error(
            UpdateSubcode.MALFORMED_ATTRIBUTE_LIST,
            message="attribute length overruns message",
        )
    attr_bytes = body[attrs_start + 2 : nlri_start]
    nlri = legacy_decode_nlri(body[nlri_start:])
    attributes: PathAttributes | None = None
    if attr_bytes or nlri:
        attributes = legacy_decode_attributes(attr_bytes, require_mandatory=bool(nlri))
    return UpdateMessage(tuple(withdrawn), attributes, tuple(nlri))


_MIN_LEN = {
    MSG_OPEN: HEADER_LEN + 10,
    MSG_UPDATE: HEADER_LEN + 4,
    MSG_NOTIFICATION: HEADER_LEN + 2,
    MSG_KEEPALIVE: HEADER_LEN,
}


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
        return legacy_decode_update_body(body), length
    if msg_type == MSG_NOTIFICATION:
        return NotificationMessage.decode_body(body), length
    return KeepaliveMessage(), length


def legacy_decode_message(data: bytes) -> BgpMessage:
    """Decode exactly one framed message (pre-optimization path)."""
    message, consumed = _decode_one(data)
    if consumed != len(data):
        raise header_error(
            HeaderSubcode.BAD_MESSAGE_LENGTH,
            message=f"trailing bytes after message: {len(data) - consumed}",
        )
    return message


def legacy_iter_messages(stream: bytes):
    """Frame and decode a contiguous byte stream (pre-optimization path,
    including its copy-the-rest-of-the-stream-per-message behaviour)."""
    offset = 0
    view = memoryview(stream)
    while offset < len(stream):
        message, consumed = _decode_one(bytes(view[offset:]))
        yield message, consumed
        offset += consumed
