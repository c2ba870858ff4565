"""BGP path attributes: values and wire codec (RFC 4271 §4.3, §5).

Implements the well-known mandatory attributes (ORIGIN, AS_PATH,
NEXT_HOP), the common optional ones the decision process consumes
(MULTI_EXIT_DISC, LOCAL_PREF), ATOMIC_AGGREGATE, AGGREGATOR, and
COMMUNITIES (RFC 1997). Unknown optional transitive attributes are
carried opaquely, as the RFC requires; unknown well-known attributes
raise the appropriate UPDATE error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum

from repro.bgp.errors import UpdateSubcode, update_error
from repro.net.addr import IPv4Address


class AttrType(IntEnum):
    """Path attribute type codes."""

    ORIGIN = 1
    AS_PATH = 2
    NEXT_HOP = 3
    MULTI_EXIT_DISC = 4
    LOCAL_PREF = 5
    ATOMIC_AGGREGATE = 6
    AGGREGATOR = 7
    COMMUNITIES = 8


class AttrFlag(IntEnum):
    """Attribute flag bits (high nibble of the flags octet)."""

    OPTIONAL = 0x80
    TRANSITIVE = 0x40
    PARTIAL = 0x20
    EXTENDED_LENGTH = 0x10


class Origin(IntEnum):
    """ORIGIN attribute values; lower is preferred in the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class WellKnownCommunity(IntEnum):
    """Well-known community values (RFC 1997) the speaker honours."""

    #: Do not advertise outside the local AS (eBGP export blocked).
    NO_EXPORT = 0xFFFFFF01
    #: Do not advertise to any peer at all.
    NO_ADVERTISE = 0xFFFFFF02
    #: Do not advertise outside the local confederation; we treat it
    #: like NO_EXPORT (no confederation support).
    NO_EXPORT_SUBCONFED = 0xFFFFFF03


class SegmentType(IntEnum):
    """AS_PATH segment types."""

    AS_SET = 1
    AS_SEQUENCE = 2


# Reading a member through the Enum class runs its metaclass's
# ``__getattr__`` hook (about 0.15 us a read on CPython 3.11); the
# decision process reads the path length on every comparison, so the
# AsPath methods read this module name instead.
_AS_SEQUENCE = SegmentType.AS_SEQUENCE


@dataclass(frozen=True, slots=True)
class AsPathSegment:
    """One AS_PATH segment: an ordered sequence or an unordered set."""

    kind: SegmentType
    asns: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.asns) == 0:
            raise ValueError("empty AS_PATH segment")
        if len(self.asns) > 255:
            raise ValueError("AS_PATH segment longer than 255 ASNs")
        for asn in self.asns:
            if not 0 < asn <= 0xFFFF:
                raise ValueError(f"ASN out of 2-byte range: {asn}")

    def encode(self) -> bytes:
        out = bytearray((self.kind, len(self.asns)))
        for asn in self.asns:
            out += asn.to_bytes(2, "big")
        return bytes(out)


@dataclass(frozen=True, slots=True)
class AsPath:
    """An AS_PATH: a tuple of segments.

    The empty path is valid (routes originated locally or sent over iBGP).
    """

    segments: tuple[AsPathSegment, ...] = ()

    @classmethod
    def from_asns(cls, asns: "tuple[int, ...] | list[int]") -> "AsPath":
        """Build a single-AS_SEQUENCE path, the common case."""
        if not asns:
            return cls()
        return cls((AsPathSegment(_AS_SEQUENCE, tuple(asns)),))

    def length(self) -> int:
        """Path length as used by the decision process (RFC 4271 §9.1.2.2):
        each AS in a sequence counts 1; an entire AS_SET counts 1."""
        total = 0
        for segment in self.segments:
            if segment.kind is _AS_SEQUENCE:
                total += len(segment.asns)
            else:
                total += 1
        return total

    def contains(self, asn: int) -> bool:
        """Loop detection: is *asn* anywhere in the path?"""
        return any(asn in segment.asns for segment in self.segments)

    def first_as(self) -> int | None:
        """The neighbouring AS: first AS of the leftmost sequence segment."""
        for segment in self.segments:
            if segment.kind is _AS_SEQUENCE:
                return segment.asns[0]
            return None
        return None

    def prepend(self, asn: int, count: int = 1) -> "AsPath":
        """Return a new path with *asn* prepended *count* times, merging
        into a leading AS_SEQUENCE when one exists (RFC 4271 §5.1.2)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        head = (asn,) * count
        if self.segments and self.segments[0].kind is _AS_SEQUENCE:
            first = self.segments[0]
            if len(first.asns) + count <= 255:
                merged = AsPathSegment(_AS_SEQUENCE, head + first.asns)
                return AsPath((merged,) + self.segments[1:])
        new_segment = AsPathSegment(_AS_SEQUENCE, head)
        return AsPath((new_segment,) + self.segments)

    def all_asns(self) -> tuple[int, ...]:
        """Every ASN mentioned anywhere in the path, in wire order."""
        out: list[int] = []
        for segment in self.segments:
            out.extend(segment.asns)
        return tuple(out)

    def encode(self) -> bytes:
        return b"".join(segment.encode() for segment in self.segments)

    @classmethod
    def decode(cls, data: bytes) -> "AsPath":
        segments: list[AsPathSegment] = []
        offset = 0
        while offset < len(data):
            if offset + 2 > len(data):
                raise update_error(UpdateSubcode.MALFORMED_AS_PATH, message="truncated segment header")
            kind_value, count = data[offset], data[offset + 1]
            offset += 2
            try:
                kind = SegmentType(kind_value)
            except ValueError:
                raise update_error(
                    UpdateSubcode.MALFORMED_AS_PATH,
                    message=f"bad segment type {kind_value}",
                ) from None
            end = offset + 2 * count
            if count == 0 or end > len(data):
                raise update_error(UpdateSubcode.MALFORMED_AS_PATH, message="truncated segment body")
            asns = tuple(
                int.from_bytes(data[i : i + 2], "big") for i in range(offset, end, 2)
            )
            try:
                segments.append(AsPathSegment(kind, asns))
            except ValueError as exc:
                raise update_error(UpdateSubcode.MALFORMED_AS_PATH, message=str(exc)) from None
            offset = end
        return cls(tuple(segments))

    def __str__(self) -> str:
        parts = []
        for segment in self.segments:
            text = " ".join(str(a) for a in segment.asns)
            parts.append(f"{{{text}}}" if segment.kind is SegmentType.AS_SET else text)
        return " ".join(parts)


@dataclass(frozen=True, slots=True)
class Aggregator:
    """AGGREGATOR attribute: the AS and router that formed an aggregate."""

    asn: int
    address: IPv4Address

    def encode(self) -> bytes:
        return self.asn.to_bytes(2, "big") + self.address.to_bytes()

    @classmethod
    def decode(cls, data: bytes) -> "Aggregator":
        if len(data) != 6:
            raise update_error(
                UpdateSubcode.ATTRIBUTE_LENGTH_ERROR, message="AGGREGATOR must be 6 bytes"
            )
        return cls(int.from_bytes(data[:2], "big"), IPv4Address.from_bytes(data[2:]))


@dataclass(frozen=True, slots=True)
class UnknownAttribute:
    """An optional attribute we do not interpret but must carry if transitive."""

    type_code: int
    flags: int
    value: bytes


@dataclass(frozen=True, slots=True)
class PathAttributes:
    """The decoded attribute set attached to an UPDATE's NLRI.

    ``local_pref`` defaults to 100, the conventional default applied to
    routes that arrive without the attribute (it is only mandatory on
    iBGP sessions).

    Instances are hash-cached and internable (:func:`intern_attributes`):
    the RIB and Adj-RIB-Out hot paths compare attribute sets on every
    announcement, and a flyweight turns those deep structural
    comparisons into pointer checks.
    """

    origin: Origin = Origin.IGP
    as_path: AsPath = field(default_factory=AsPath)
    next_hop: IPv4Address | None = None
    med: int | None = None
    local_pref: int | None = None
    atomic_aggregate: bool = False
    aggregator: Aggregator | None = None
    communities: tuple[int, ...] = ()
    unknown: tuple[UnknownAttribute, ...] = ()
    #: Lazily computed structural hash; an attribute set is hashed on
    #: every Adj-RIB-Out flush group and every intern probe, and the
    #: nested AS_PATH tuples make each recomputation a deep walk.
    _hash: "int | None" = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((
                self.origin,
                self.as_path,
                self.next_hop,
                self.med,
                self.local_pref,
                self.atomic_aggregate,
                self.aggregator,
                self.communities,
                self.unknown,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    def effective_local_pref(self) -> int:
        return 100 if self.local_pref is None else self.local_pref

    def effective_med(self) -> int:
        """Missing MED compares as the lowest (most preferred is lowest;
        we adopt the common missing-as-zero vendor behaviour)."""
        return 0 if self.med is None else self.med

    # Kept as a probed attributes-layer boundary (benchmarks/ledger/probes.py).
    def with_prepended_as(self, asn: int, count: int = 1) -> "PathAttributes":
        return replace(self, as_path=self.as_path.prepend(asn, count))

    def with_next_hop(self, next_hop: IPv4Address) -> "PathAttributes":
        return replace(self, next_hop=next_hop)


def _encode_attribute(type_code: int, flags: int, value: bytes) -> bytes:
    """Encode one attribute TLV, choosing extended length when needed."""
    if len(value) > 0xFFFF:
        raise ValueError(f"attribute {type_code} too long: {len(value)}")
    if len(value) > 0xFF:
        flags |= AttrFlag.EXTENDED_LENGTH
        header = bytes((flags, type_code)) + len(value).to_bytes(2, "big")
    else:
        flags &= ~AttrFlag.EXTENDED_LENGTH & 0xFF
        header = bytes((flags, type_code, len(value)))
    return header + value


def encode_attributes(attrs: PathAttributes) -> bytes:
    """Encode a :class:`PathAttributes` into the wire attribute list.

    Attributes are emitted in ascending type-code order, which is what
    routers conventionally produce (the RFC only recommends it).
    Memoized by attribute set (see the cache notes below): a speaker
    re-advertising one path to many neighbours encodes it once.
    """
    cached = _encode_cache.get(attrs)
    if cached is not None:
        return cached
    out = bytearray()
    out += _encode_attribute(
        AttrType.ORIGIN, AttrFlag.TRANSITIVE, bytes((attrs.origin,))
    )
    out += _encode_attribute(AttrType.AS_PATH, AttrFlag.TRANSITIVE, attrs.as_path.encode())
    if attrs.next_hop is not None:
        out += _encode_attribute(
            AttrType.NEXT_HOP, AttrFlag.TRANSITIVE, attrs.next_hop.to_bytes()
        )
    if attrs.med is not None:
        out += _encode_attribute(
            AttrType.MULTI_EXIT_DISC, AttrFlag.OPTIONAL, attrs.med.to_bytes(4, "big")
        )
    if attrs.local_pref is not None:
        out += _encode_attribute(
            AttrType.LOCAL_PREF, AttrFlag.TRANSITIVE, attrs.local_pref.to_bytes(4, "big")
        )
    if attrs.atomic_aggregate:
        out += _encode_attribute(AttrType.ATOMIC_AGGREGATE, AttrFlag.TRANSITIVE, b"")
    if attrs.aggregator is not None:
        out += _encode_attribute(
            AttrType.AGGREGATOR,
            AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE,
            attrs.aggregator.encode(),
        )
    if attrs.communities:
        value = b"".join(c.to_bytes(4, "big") for c in attrs.communities)
        out += _encode_attribute(
            AttrType.COMMUNITIES, AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE, value
        )
    for unknown in attrs.unknown:
        out += _encode_attribute(unknown.type_code, unknown.flags, unknown.value)
    wire = bytes(out)
    if len(_encode_cache) < _ENCODE_CACHE_CAPACITY:
        _encode_cache[attrs] = wire
    return wire


def _require_length(type_code: int, value: bytes, expected: int) -> None:
    if len(value) != expected:
        raise update_error(
            UpdateSubcode.ATTRIBUTE_LENGTH_ERROR,
            data=bytes((type_code,)),
            message=f"attribute {type_code}: expected {expected} bytes, got {len(value)}",
        )


def _check_flags(type_code: int, flags: int, well_known: bool) -> None:
    """Validate the OPTIONAL/TRANSITIVE bits against the attribute class."""
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


def decode_attributes(data: bytes, require_mandatory: bool = True) -> PathAttributes:
    """Decode a wire attribute list into :class:`PathAttributes`.

    With *require_mandatory* (the default, correct for UPDATEs carrying
    NLRI), ORIGIN, AS_PATH, and NEXT_HOP must all be present.
    """
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
            # Unknown optional: keep transitive ones (with PARTIAL set when
            # re-advertised); non-transitive ones are silently dropped.
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


# -- attribute flyweights and the codec caches -----------------------------
#
# Five small caches carry most of the speaker's hot-path speedup:
#
# * ``intern_attributes`` maps every attribute set to one canonical
#   instance, so the RIB equality checks on announcement/staging become
#   identity checks (the flyweight pattern every production BGP stack
#   applies to its attribute store);
# * ``decode_attributes_cached`` memoizes successful decodes by the
#   exact wire blob — table transfers and storms repeat a small set of
#   attribute blobs across thousands of UPDATEs, and a repeat costs one
#   dict probe instead of a full parse;
# * ``encode_attributes`` is its mirror image, attribute set → wire
#   blob: one path re-advertised to many neighbours is encoded once;
# * ``repro.bgp.messages.decode_message`` memoizes whole small messages
#   by their exact wire bytes (the dict lives here so that one stats
#   call and one clear hook cover every codec cache): in a topology the
#   same UPDATE reaches many receivers, and path exploration keeps
#   re-announcing a small set of paths;
# * ``repro.bgp.messages.UpdateMessage.encode`` is its mirror image,
#   frozen UPDATE value → wire, under the same bounds: a speaker sends
#   one single-route UPDATE to each neighbour, and every speaker on the
#   path re-sends the same few.
#
# All of them stop growing at a fixed capacity instead of evicting:
# behaviour stays deterministic (no eviction-order dependence), and the
# working set of real tables is far below the caps. Errors are never
# cached — corrupt input re-raises through the full parse every time,
# keeping the error taxonomy identical to the uncached path.
#
# Fork-safety contract (see docs/PERF.md): these module globals are
# *pure memoization* — every entry is keyed on value (attribute-set
# equality, exact wire blob) and maps to a value that is a deterministic
# function of its key. A worker process that forks with a warm, cold, or
# differently-warmed cache computes byte-identical results; only the
# hit/miss telemetry differs per process, and ``_cache_counters`` is
# telemetry no result ever reads. Any new module global touched on a
# worker path must either satisfy this same value-keyed contract or be
# threaded through the cell spec — and be emptied by
# ``clear_codec_caches``/``repro.bgp.reset_caches`` (a tier-1 test runs
# a topology cell and a grid cell and fails on any module-level
# container anywhere in ``repro`` that grew and survives the reset).

_INTERN_CAPACITY = 1 << 16
_DECODE_CACHE_CAPACITY = 1 << 15
_ENCODE_CACHE_CAPACITY = 1 << 13
#: Whole-message memos (decode and encode): entry count, and the longest
#: message worth keeping. Single-route UPDATEs (up to a ~30-hop AS_PATH)
#: fit; packed UPDATEs are unique by construction and must not cost
#: memory.
_MESSAGE_CACHE_CAPACITY = 1 << 12
_MESSAGE_CACHE_MAX_LEN = 128

_interned: "dict[PathAttributes, PathAttributes]" = {}
_decode_cache_strict: "dict[bytes, PathAttributes]" = {}
_decode_cache_lax: "dict[bytes, PathAttributes]" = {}
_encode_cache: "dict[PathAttributes, bytes]" = {}
_message_cache: "dict[bytes, object]" = {}
_wire_cache: "dict[object, bytes]" = {}
_cache_counters = {
    "intern_hits": 0,
    "intern_misses": 0,
    "decode_hits": 0,
    "decode_misses": 0,
}


def intern_attributes(attrs: PathAttributes) -> PathAttributes:
    """Return the canonical instance equal to *attrs*.

    Two interned attribute sets are equal iff they are the same object,
    which the RIBs exploit with identity fast paths. Safe on arbitrary
    inputs: a non-internable set (cache full) is returned unchanged.
    """
    canonical = _interned.get(attrs)
    if canonical is not None:
        _cache_counters["intern_hits"] += 1
        return canonical
    _cache_counters["intern_misses"] += 1
    if len(_interned) < _INTERN_CAPACITY:
        _interned[attrs] = attrs
    return attrs


def decode_attributes_cached(
    data: "bytes | memoryview", require_mandatory: bool = True
) -> PathAttributes:
    """Like :func:`decode_attributes`, memoized by the wire blob.

    *data* may be a read-only :class:`memoryview`; a cache hit then
    performs no copy at all. The returned instance is interned.
    """
    cache = _decode_cache_strict if require_mandatory else _decode_cache_lax
    cached = cache.get(data)
    if cached is not None:
        _cache_counters["decode_hits"] += 1
        return cached
    _cache_counters["decode_misses"] += 1
    blob = bytes(data)
    attrs = intern_attributes(decode_attributes(blob, require_mandatory))
    if len(cache) < _DECODE_CACHE_CAPACITY:
        cache[blob] = attrs
    return attrs


def codec_cache_stats() -> "dict[str, int]":
    """Hit/miss counters plus live sizes."""
    return {
        **_cache_counters,
        "interned_size": len(_interned),
        "decode_cache_size": len(_decode_cache_strict) + len(_decode_cache_lax),
        "encode_cache_size": len(_encode_cache),
        "message_cache_size": len(_message_cache),
        "wire_cache_size": len(_wire_cache),
    }


def clear_codec_caches() -> None:
    """Reset the flyweight and the codec memos (tests, benchmarks, and
    worker-process start — see the fork-safety contract in
    docs/PERF.md: clearing *is* how workers begin cold)."""
    _interned.clear()
    _decode_cache_strict.clear()
    _decode_cache_lax.clear()
    _encode_cache.clear()
    _message_cache.clear()
    _wire_cache.clear()
    for key in _cache_counters:
        _cache_counters[key] = 0
