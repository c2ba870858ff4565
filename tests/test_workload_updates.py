"""Unit tests for the UPDATE stream builders."""

import hashlib

import pytest

import repro.bgp
from repro.bgp.messages import MAX_MESSAGE_LEN, UpdateMessage, decode_message
from repro.net.addr import IPv4Address
from repro.workload.tablegen import generate_table
from repro.workload import updates
from repro.workload.updates import LARGE_UPDATE_PREFIXES, UpdateStreamBuilder

ADDR = IPv4Address.parse("10.255.1.1")


@pytest.fixture
def builder():
    return UpdateStreamBuilder(65101, ADDR)


@pytest.fixture
def table():
    return generate_table(1203, seed=3)


class TestAnnouncements:
    def test_small_packets_one_prefix_each(self, builder, table):
        packets = builder.announcements(table, prefixes_per_update=1)
        assert len(packets) == len(table)
        first = decode_message(packets[0])
        assert isinstance(first, UpdateMessage)
        assert len(first.nlri) == 1

    def test_large_packets_batch_500(self, builder, table):
        packets = builder.announcements(table, prefixes_per_update=LARGE_UPDATE_PREFIXES)
        assert len(packets) == 3  # 500 + 500 + 203
        sizes = [len(decode_message(p).nlri) for p in packets]
        assert sizes == [500, 500, 203]

    def test_covers_whole_table_exactly_once(self, builder, table):
        packets = builder.announcements(table, prefixes_per_update=100)
        seen = []
        for packet in packets:
            seen.extend(decode_message(packet).nlri)
        assert sorted(seen) == sorted(table.prefixes())

    def test_next_hop_and_first_as(self, builder, table):
        packet = decode_message(builder.announcements(table, 1)[0])
        assert packet.attributes.next_hop == ADDR
        assert packet.attributes.as_path.first_as() == 65101

    def test_extra_hops_lengthen_path(self, builder, table):
        base = decode_message(builder.announcements(table, 1, extra_hops=0)[0])
        longer = decode_message(builder.announcements(table, 1, extra_hops=2)[0])
        shorter = decode_message(builder.announcements(table, 1, extra_hops=-2)[0])
        base_len = base.attributes.as_path.length()
        assert longer.attributes.as_path.length() == base_len + 2
        assert shorter.attributes.as_path.length() < base_len

    def test_bad_packing_rejected(self, builder, table):
        with pytest.raises(ValueError):
            builder.announcements(table, prefixes_per_update=0)


class TestWithdrawals:
    def test_small_withdrawals(self, builder, table):
        packets = builder.withdrawals(table, prefixes_per_update=1)
        assert len(packets) == len(table)
        first = decode_message(packets[0])
        assert len(first.withdrawn) == 1
        assert first.nlri == ()

    def test_large_withdrawals(self, builder, table):
        packets = builder.withdrawals(table, prefixes_per_update=500)
        sizes = [len(decode_message(p).withdrawn) for p in packets]
        assert sizes == [500, 500, 203]

    def test_covers_table(self, builder, table):
        packets = builder.withdrawals(table, prefixes_per_update=77)
        seen = []
        for packet in packets:
            seen.extend(decode_message(packet).withdrawn)
        assert sorted(seen) == sorted(table.prefixes())


class TestFlapStorm:
    def test_alternates_announce_withdraw(self, builder):
        table = generate_table(50, seed=9)
        packets = builder.flap_storm(table, rounds=4, prefixes_per_update=50)
        kinds = []
        for packet in packets:
            message = decode_message(packet)
            kinds.append("w" if message.withdrawn else "a")
        assert kinds == ["a", "w", "a", "w"]

    def test_round_count_scales_volume(self, builder):
        table = generate_table(30, seed=9)
        two = builder.flap_storm(table, rounds=2, prefixes_per_update=1)
        six = builder.flap_storm(table, rounds=6, prefixes_per_update=1)
        assert len(six) == 3 * len(two)

    def test_bad_rounds_rejected(self, builder):
        with pytest.raises(ValueError):
            builder.flap_storm(generate_table(5), rounds=0)


class TestMessageSizeLimit:
    """A batch is cut at the packing or at 4096 octets, whichever binds
    first — the rule the speaker's own flush follows."""

    def test_packing_above_the_octet_limit_cuts_by_octets(self, builder):
        table = generate_table(4000, seed=42)
        for packets in (builder.announcements(table, 1100), builder.withdrawals(table, 1100)):
            assert max(len(packet) for packet in packets) <= MAX_MESSAGE_LEN
            messages = [decode_message(packet) for packet in packets]
            carried = [p for message in messages for p in message.nlri or message.withdrawn]
            assert carried == table.prefixes()
            assert len(messages) < len(table) / 500  # still packed, not one per prefix

    def test_each_cut_carries_its_first_entrys_path(self, builder):
        table = generate_table(4000, seed=42)
        start = 0
        for packet in builder.announcements(table, 1100):
            message = decode_message(packet)
            assert message.attributes == builder._attributes(table.entries[start], 0)
            start += len(message.nlri)
        assert start == len(table)

    @pytest.mark.parametrize("stream, packing, digest", [
        ("announcements", 1, "62ef10d8510c7c45cd9e812cd4d443305a52f286061a2e5c474a0421bd65f9e7"),
        ("withdrawals", 1, "3755bef49ab2715d2c421846583f9a284e315ebc6932f8950b80aaca33de0aeb"),
        ("flap_storm", 1, "a02e0c6dd630d50e2d8d11f42595c89ae1aa2e915b14a3cd716ac32bf9797354"),
        ("announcements", 500, "acc52ec6b4d261fc013a3894507f571b8d06da08476df48bd8009940235ed01c"),
        ("withdrawals", 500, "ab53afb937928ead51a9d42c388eae8e7e81721bd21a1174d73fea3d1477c026"),
        ("flap_storm", 500, "b34268d3f6ff2da68e4f0e14f95f37846e70ac63ebe3f1b1ad55dbe6db9bbfdd"),
    ])
    def test_streams_that_fit_are_byte_identical(self, builder, stream, packing, digest):
        table = generate_table(2000, seed=42)
        if stream == "flap_storm":
            packets = builder.flap_storm(table, 3, packing)
        else:
            packets = getattr(builder, stream)(table, packing)
        assert hashlib.sha256(b"".join(packets)).hexdigest() == digest


class TestStreamMemo:
    """Each announcement stream of a table is encoded once per cold
    start: every platform of a scenario replays the same bytes."""

    #: (speaker AS, packing, extra_hops): Speaker 1's stream, and
    #: Speaker 2's longer- and shorter-path streams (scenarios 5-8).
    STREAMS = [(65101, 1, 0), (65102, 1, 2), (65102, 500, -2)]

    @pytest.mark.parametrize("asn, packing, extra_hops", STREAMS)
    def test_warm_bytes_equal_cold_bytes(self, asn, packing, extra_hops):
        table = generate_table(700, seed=9)
        builder = UpdateStreamBuilder(asn, ADDR)
        repro.bgp.reset_caches()
        cold = builder.announcements(table, packing, extra_hops)
        warm = UpdateStreamBuilder(asn, ADDR).announcements(table, packing, extra_hops)
        assert warm == cold
        assert warm == builder.announcements(list(table), packing, extra_hops)

    def test_reset_caches_empties_the_memo(self, builder):
        builder.announcements(generate_table(50, seed=9))
        assert updates._streams
        repro.bgp.reset_caches()
        assert not updates._streams

    def test_a_returned_list_is_the_callers_own(self, builder, table):
        first = builder.announcements(table)
        expected = list(first)
        first.clear()
        second = builder.announcements(table)
        assert second == expected
        assert second is not first

    def test_each_stream_has_its_own_key(self, table):
        repro.bgp.reset_caches()
        streams = {
            (asn, packing, hops): UpdateStreamBuilder(asn, ADDR).announcements(table, packing, hops)
            for asn, packing, hops in self.STREAMS + [(65101, 500, 0)]
        }
        assert len(updates._streams) == 4
        assert len({tuple(stream) for stream in streams.values()}) == 4

    def test_the_memo_is_bounded(self, builder):
        repro.bgp.reset_caches()
        table = generate_table(3, seed=9)
        for packing in range(1, updates._STREAM_CAPACITY + 10):
            builder.announcements(table, packing)
        assert len(updates._streams) == updates._STREAM_CAPACITY
        # Past the bound a stream is still encoded, just not kept.
        assert builder.announcements(table, 200) == builder.announcements(list(table), 200)
        assert len(updates._streams) == updates._STREAM_CAPACITY
        repro.bgp.reset_caches()
