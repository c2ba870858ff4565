"""Unit tests for the FIB."""

import pytest

from repro.forwarding.fib import Fib
from repro.net.addr import AddressError, IPv4Address, Prefix

P1 = Prefix.parse("192.0.2.0/24")
P2 = Prefix.parse("10.0.0.0/8")
NH1 = IPv4Address.parse("10.0.0.1")
NH2 = IPv4Address.parse("10.0.0.2")


class TestFibSinkProtocol:
    def test_add_route(self):
        fib = Fib()
        fib.add_route(P1, NH1)
        assert len(fib) == 1
        assert P1 in fib
        assert fib.next_hop_for(P1) == NH1
        assert fib.stats.adds == 1

    def test_replace_route(self):
        fib = Fib()
        fib.add_route(P1, NH1)
        fib.replace_route(P1, NH2)
        assert fib.next_hop_for(P1) == NH2
        assert len(fib) == 1
        assert fib.stats.replaces == 1

    def test_delete_route(self):
        fib = Fib()
        fib.add_route(P1, NH1)
        fib.delete_route(P1)
        assert len(fib) == 0
        assert P1 not in fib
        assert fib.stats.deletes == 1

    def test_changes_counter(self):
        fib = Fib()
        fib.add_route(P1, NH1)
        fib.replace_route(P1, NH2)
        fib.delete_route(P1)
        assert fib.stats.changes == 3


class TestLookup:
    def test_longest_match(self):
        fib = Fib()
        fib.add_route(P2, NH1)
        fib.add_route(Prefix.parse("10.1.0.0/16"), NH2)
        assert fib.lookup(IPv4Address.parse("10.1.2.3")) == NH2
        assert fib.lookup(IPv4Address.parse("10.2.0.1")) == NH1
        assert fib.stats.lookups == 2
        assert fib.stats.lookup_misses == 0

    def test_miss_counted(self):
        fib = Fib()
        fib.add_route(P1, NH1)
        assert fib.lookup(IPv4Address.parse("8.8.8.8")) is None
        assert fib.stats.lookup_misses == 1

    def test_routes_iteration(self):
        fib = Fib()
        fib.add_route(P1, NH1)
        fib.add_route(P2, NH2)
        assert dict(fib.routes()) == {P1: NH1, P2: NH2}

    def test_routes_ascending_and_deleted_routes_gone(self):
        fib = Fib()
        more_specific = Prefix.parse("10.1.0.0/16")
        for prefix in (P1, more_specific, P2):
            fib.add_route(prefix, NH1)
        assert [prefix for prefix, _nh in fib.routes()] == [P2, more_specific, P1]
        fib.delete_route(more_specific)
        assert more_specific not in fib and len(fib) == 2
        assert fib.next_hop_for(more_specific) is None
        assert [prefix for prefix, _nh in fib.routes()] == [P2, P1]
        assert fib.lookup(IPv4Address.parse("10.1.2.3")) == NH1  # falls back to P2

    @pytest.mark.parametrize("destination", [-1, 2**32 + 5])
    def test_out_of_range_int_is_an_error_not_the_default_route(self, destination):
        fib = Fib()
        fib.add_route(Prefix.parse("0.0.0.0/0"), NH1)
        with pytest.raises(AddressError):
            fib.lookup(destination)
        assert fib.stats.lookups == 0
        assert fib.lookup(2**32 - 1) == NH1


class TestSpeakerIntegration:
    def test_fib_tracks_loc_rib(self):
        """The Fib satisfies the FibSink protocol used by BgpSpeaker."""
        from repro.bgp.speaker import BgpSpeaker, SpeakerConfig

        fib = Fib()
        speaker = BgpSpeaker(
            SpeakerConfig(
                asn=65000,
                bgp_identifier=IPv4Address.parse("1.1.1.1"),
                local_address=IPv4Address.parse("10.0.0.254"),
            ),
            fib=fib,
        )
        speaker.originate(P1)
        assert fib.next_hop_for(P1) == speaker.config.local_address
        speaker.withdraw_local(P1)
        assert len(fib) == 0
