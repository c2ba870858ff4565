"""Unit tests for BGP path attributes and their codec."""

import pytest

from repro.bgp.attributes import (
    Aggregator,
    AsPath,
    AsPathSegment,
    AttrFlag,
    AttrType,
    Origin,
    PathAttributes,
    SegmentType,
    decode_attributes,
    encode_attributes,
)
from repro.bgp.errors import BgpError
from repro.net.addr import IPv4Address

NH = IPv4Address.parse("10.0.0.1")


class TestAsPath:
    def test_from_asns(self):
        path = AsPath.from_asns([65001, 65002, 65003])
        assert path.length() == 3
        assert path.first_as() == 65001

    def test_empty_path(self):
        path = AsPath()
        assert path.length() == 0
        assert path.first_as() is None

    def test_as_set_counts_one(self):
        path = AsPath((
            AsPathSegment(SegmentType.AS_SEQUENCE, (65001, 65002)),
            AsPathSegment(SegmentType.AS_SET, (65003, 65004, 65005)),
        ))
        assert path.length() == 3  # 2 + 1 for the whole set

    def test_contains_for_loop_detection(self):
        path = AsPath((
            AsPathSegment(SegmentType.AS_SEQUENCE, (65001,)),
            AsPathSegment(SegmentType.AS_SET, (65002, 65003)),
        ))
        assert path.contains(65001)
        assert path.contains(65003)
        assert not path.contains(65099)

    def test_prepend_merges_into_leading_sequence(self):
        path = AsPath.from_asns([65002]).prepend(65001)
        assert path.segments == (
            AsPathSegment(SegmentType.AS_SEQUENCE, (65001, 65002)),
        )

    def test_prepend_count(self):
        path = AsPath.from_asns([65002]).prepend(65001, count=3)
        assert path.all_asns() == (65001, 65001, 65001, 65002)

    def test_prepend_onto_empty(self):
        path = AsPath().prepend(65001)
        assert path.length() == 1

    def test_prepend_before_as_set_creates_new_segment(self):
        path = AsPath((AsPathSegment(SegmentType.AS_SET, (65002,)),)).prepend(65001)
        assert len(path.segments) == 2
        assert path.segments[0].kind is SegmentType.AS_SEQUENCE

    def test_prepend_rejects_bad_count(self):
        with pytest.raises(ValueError):
            AsPath().prepend(65001, count=0)

    def test_codec_round_trip(self):
        path = AsPath((
            AsPathSegment(SegmentType.AS_SEQUENCE, (1, 2, 3)),
            AsPathSegment(SegmentType.AS_SET, (7, 9)),
        ))
        assert AsPath.decode(path.encode()) == path

    def test_decode_rejects_truncated(self):
        with pytest.raises(BgpError):
            AsPath.decode(b"\x02")  # header cut short
        with pytest.raises(BgpError):
            AsPath.decode(b"\x02\x02\x00\x01")  # body cut short

    def test_decode_rejects_bad_segment_type(self):
        with pytest.raises(BgpError):
            AsPath.decode(b"\x05\x01\x00\x01")

    def test_decode_rejects_empty_segment(self):
        with pytest.raises(BgpError):
            AsPath.decode(b"\x02\x00")

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            AsPathSegment(SegmentType.AS_SEQUENCE, ())
        with pytest.raises(ValueError):
            AsPathSegment(SegmentType.AS_SEQUENCE, (0,))
        with pytest.raises(ValueError):
            AsPathSegment(SegmentType.AS_SEQUENCE, (70000,))

    def test_str(self):
        path = AsPath((
            AsPathSegment(SegmentType.AS_SEQUENCE, (1, 2)),
            AsPathSegment(SegmentType.AS_SET, (3, 4)),
        ))
        assert str(path) == "1 2 {3 4}"


class TestPathAttributesDefaults:
    def test_effective_local_pref_default(self):
        assert PathAttributes().effective_local_pref() == 100
        assert PathAttributes(local_pref=50).effective_local_pref() == 50

    def test_effective_med_default(self):
        assert PathAttributes().effective_med() == 0
        assert PathAttributes(med=10).effective_med() == 10

    def test_with_prepended_as(self):
        attrs = PathAttributes(as_path=AsPath.from_asns([2]))
        assert attrs.with_prepended_as(1).as_path.all_asns() == (1, 2)

    def test_with_next_hop(self):
        attrs = PathAttributes().with_next_hop(NH)
        assert attrs.next_hop == NH


class TestAttributeCodec:
    def round_trip(self, attrs: PathAttributes) -> PathAttributes:
        return decode_attributes(encode_attributes(attrs))

    def test_minimal(self):
        attrs = PathAttributes(as_path=AsPath.from_asns([65001]), next_hop=NH)
        assert self.round_trip(attrs) == attrs

    def test_full(self):
        attrs = PathAttributes(
            origin=Origin.EGP,
            as_path=AsPath.from_asns([65001, 65002]),
            next_hop=NH,
            med=77,
            local_pref=200,
            atomic_aggregate=True,
            aggregator=Aggregator(65001, IPv4Address.parse("1.1.1.1")),
            communities=(0xFFFF0001, 65001 << 16 | 40),
        )
        assert self.round_trip(attrs) == attrs

    def test_missing_mandatory_rejected(self):
        # ORIGIN only: AS_PATH and NEXT_HOP absent.
        wire = bytes((AttrFlag.TRANSITIVE, AttrType.ORIGIN, 1, 0))
        with pytest.raises(BgpError):
            decode_attributes(wire)

    def test_mandatory_not_required_for_withdraw_only(self):
        attrs = decode_attributes(b"", require_mandatory=False)
        assert attrs.next_hop is None

    def test_duplicate_attribute_rejected(self):
        wire = bytes((AttrFlag.TRANSITIVE, AttrType.ORIGIN, 1, 0)) * 2
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)

    def test_bad_origin_value(self):
        wire = bytes((AttrFlag.TRANSITIVE, AttrType.ORIGIN, 1, 9))
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)

    def test_bad_origin_length(self):
        wire = bytes((AttrFlag.TRANSITIVE, AttrType.ORIGIN, 2, 0, 0))
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)

    def test_invalid_next_hop(self):
        wire = bytes((AttrFlag.TRANSITIVE, AttrType.NEXT_HOP, 4)) + b"\x00" * 4
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)

    def test_well_known_flagged_optional_rejected(self):
        wire = bytes((AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE, AttrType.ORIGIN, 1, 0))
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)

    def test_unknown_well_known_rejected(self):
        wire = bytes((AttrFlag.TRANSITIVE, 99, 1, 0))
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)

    def test_unknown_optional_transitive_carried_with_partial(self):
        wire = bytes((AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE, 99, 2, 0xAB, 0xCD))
        attrs = decode_attributes(wire, require_mandatory=False)
        assert len(attrs.unknown) == 1
        unknown = attrs.unknown[0]
        assert unknown.type_code == 99
        assert unknown.value == b"\xab\xcd"
        assert unknown.flags & AttrFlag.PARTIAL

    def test_unknown_optional_nontransitive_dropped(self):
        wire = bytes((AttrFlag.OPTIONAL, 99, 1, 0))
        attrs = decode_attributes(wire, require_mandatory=False)
        assert attrs.unknown == ()

    def test_extended_length_encoding(self):
        # A long AS path (130 ASNs = 262 bytes) forces extended length.
        attrs = PathAttributes(
            as_path=AsPath((
                AsPathSegment(SegmentType.AS_SEQUENCE, tuple(range(1, 131))),
            )),
            next_hop=NH,
        )
        assert self.round_trip(attrs) == attrs

    def test_truncated_attribute_header(self):
        with pytest.raises(BgpError):
            decode_attributes(b"\x40", require_mandatory=False)

    def test_attribute_overrun(self):
        wire = bytes((AttrFlag.TRANSITIVE, AttrType.ORIGIN, 5, 0))
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)

    def test_communities_bad_length(self):
        wire = bytes((AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE, AttrType.COMMUNITIES, 3, 0, 0, 0))
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)

    def test_aggregator_bad_length(self):
        wire = bytes((AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE, AttrType.AGGREGATOR, 2, 0, 0))
        with pytest.raises(BgpError):
            decode_attributes(wire, require_mandatory=False)
