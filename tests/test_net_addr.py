"""Unit tests for IPv4 addresses and CIDR prefixes."""

import pytest

from repro.net.addr import AddressError, IPv4Address, Prefix, iter_subnets


class TestIPv4Address:
    def test_parse_and_str_round_trip(self):
        for text in ("0.0.0.0", "10.0.0.1", "192.0.2.255", "255.255.255.255"):
            assert str(IPv4Address.parse(text)) == text

    def test_parse_value(self):
        assert IPv4Address.parse("10.0.0.1").value == 0x0A000001

    def test_parse_rejects_bad_octet_count(self):
        with pytest.raises(AddressError):
            IPv4Address.parse("10.0.1")
        with pytest.raises(AddressError):
            IPv4Address.parse("10.0.0.1.2")

    def test_parse_rejects_out_of_range_octet(self):
        with pytest.raises(AddressError):
            IPv4Address.parse("10.0.0.256")

    def test_parse_rejects_leading_zero(self):
        with pytest.raises(AddressError):
            IPv4Address.parse("10.0.0.01")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(AddressError):
            IPv4Address.parse("10.0.0.x")
        with pytest.raises(AddressError):
            IPv4Address.parse("10.0.0.-1")

    @pytest.mark.parametrize("text", ["1.2.3.\u00b2", "\u0661.\u0662.\u0663.\u0664"])
    def test_parse_rejects_non_ascii_digits(self, text):
        # str.isdigit() accepts both: the superscript used to escape as
        # a bare ValueError from int(), the Arabic-Indic digits parsed
        # silently as 1.2.3.4.
        with pytest.raises(AddressError):
            IPv4Address.parse(text)

    def test_value_range_check(self):
        with pytest.raises(AddressError):
            IPv4Address(-1)
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    def test_bytes_round_trip(self):
        addr = IPv4Address.parse("198.51.100.7")
        assert IPv4Address.from_bytes(addr.to_bytes()) == addr

    def test_from_bytes_requires_four(self):
        with pytest.raises(AddressError):
            IPv4Address.from_bytes(b"\x01\x02\x03")

    def test_ordering(self):
        low = IPv4Address.parse("10.0.0.1")
        high = IPv4Address.parse("10.0.0.2")
        assert low < high
        assert high > low
        assert low <= IPv4Address.parse("10.0.0.1")

    def test_int_conversion(self):
        assert int(IPv4Address.parse("0.0.0.1")) == 1

    def test_hashable(self):
        a = IPv4Address.parse("1.2.3.4")
        b = IPv4Address.parse("1.2.3.4")
        assert len({a, b}) == 1


class TestPrefix:
    def test_parse_and_str_round_trip(self):
        for text in ("0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "192.0.2.1/32"):
            assert str(Prefix.parse(text)) == text

    def test_parse_rejects_missing_slash(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0")

    def test_parse_rejects_bad_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/33")
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/x")

    @pytest.mark.parametrize("text", ["10.0.0.0/\u00b2", "10.0.0.0/\u0668"])
    def test_parse_rejects_non_ascii_length(self, text):
        with pytest.raises(AddressError):
            Prefix.parse(text)

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.1/24")

    def test_from_address_masks_host_bits(self):
        prefix = Prefix.from_address(IPv4Address.parse("10.1.2.3"), 16)
        assert str(prefix) == "10.1.0.0/16"

    def test_contains(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.contains(IPv4Address.parse("192.0.2.1"))
        assert prefix.contains(IPv4Address.parse("192.0.2.255"))
        assert not prefix.contains(IPv4Address.parse("192.0.3.0"))

    def test_default_route_contains_everything(self):
        default = Prefix.parse("0.0.0.0/0")
        assert default.contains(IPv4Address.parse("255.255.255.255"))
        assert default.contains(0)

    def test_covers(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.1.0.0/16")
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.covers(outer)

    def test_covers_disjoint(self):
        assert not Prefix.parse("10.0.0.0/8").covers(Prefix.parse("11.0.0.0/8"))

    def test_first_last_address(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert str(prefix.first_address()) == "192.0.2.0"
        assert str(prefix.last_address()) == "192.0.2.255"

    def test_host_route_first_last(self):
        prefix = Prefix.parse("192.0.2.7/32")
        assert prefix.first_address() == prefix.last_address()

    def test_bits(self):
        assert Prefix.parse("128.0.0.0/1").bits() == "1"
        assert Prefix.parse("192.0.0.0/2").bits() == "11"
        assert Prefix.parse("0.0.0.0/0").bits() == ""
        assert Prefix.parse("10.0.0.0/8").bits() == "00001010"

    def test_mask(self):
        assert Prefix.parse("0.0.0.0/0").mask == 0
        assert Prefix.parse("192.0.2.0/24").mask == 0xFFFFFF00
        assert Prefix.parse("192.0.2.1/32").mask == 0xFFFFFFFF

    def test_ordering(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a < b < c

    def test_repr_is_eval_friendly(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert eval(repr(prefix)) == prefix

    def test_hashable_key(self):
        table = {Prefix.parse("10.0.0.0/8"): "a"}
        assert table[Prefix.parse("10.0.0.0/8")] == "a"


class TestIterSubnets:
    def test_split_into_two(self):
        subnets = list(iter_subnets(Prefix.parse("10.0.0.0/24"), 25))
        assert [str(p) for p in subnets] == ["10.0.0.0/25", "10.0.0.128/25"]

    def test_same_length_yields_self(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert list(iter_subnets(prefix, 24)) == [prefix]

    def test_rejects_shorter_target(self):
        with pytest.raises(AddressError):
            list(iter_subnets(Prefix.parse("10.0.0.0/24"), 23))

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            list(iter_subnets(Prefix.parse("10.0.0.0/24"), 33))

    def test_count(self):
        assert len(list(iter_subnets(Prefix.parse("10.0.0.0/24"), 28))) == 16
