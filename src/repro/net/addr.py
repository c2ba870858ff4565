"""IPv4 addresses and CIDR prefixes.

These are deliberately lightweight value types: the BGP codec, the
RIBs and the FIB handle millions of them, so they avoid the overhead
of :mod:`ipaddress` while keeping the same semantics for the subset of
operations the benchmark needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from operator import itemgetter

_MAX_U32 = 0xFFFFFFFF


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def _is_decimal(text: str) -> bool:
    """True for a non-empty run of ASCII digits. ``str.isdigit`` alone
    also accepts superscripts (which ``int`` rejects) and other scripts'
    digits (which ``int`` silently converts)."""
    return text.isascii() and text.isdigit()


@total_ordering
@dataclass(frozen=True, slots=True)
class IPv4Address:
    """An IPv4 address stored as an unsigned 32-bit integer.

    >>> IPv4Address.parse("10.0.0.1").value
    167772161
    >>> str(IPv4Address(167772161))
    '10.0.0.1'
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_U32:
            raise AddressError(f"address out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation."""
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"not a dotted quad: {text!r}")
        value = 0
        for part in parts:
            if not _is_decimal(part) or (len(part) > 1 and part[0] == "0"):
                raise AddressError(f"bad octet {part!r} in {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        if len(data) != 4:
            raise AddressError(f"need 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __int__(self) -> int:
        return self.value


def address_int(address: "IPv4Address | int") -> int:
    """*address* as an unsigned 32-bit integer. A raw int is
    range-checked here, so every LPM ``lookup`` rejects it the same way;
    an :class:`IPv4Address` was validated when it was built."""
    if isinstance(address, IPv4Address):
        return address.value
    value = int(address)
    if not 0 <= value <= _MAX_U32:
        raise AddressError(f"address out of range: {value:#x}")
    return value


def _mask(length: int) -> int:
    """Network mask for a prefix length, as a 32-bit integer."""
    if length == 0:
        return 0
    return (_MAX_U32 << (32 - length)) & _MAX_U32


class Prefix(tuple):
    """A CIDR prefix: a network address plus a length in [0, 32].

    The network address is canonicalised (host bits must be zero), which
    makes prefixes safe dictionary keys for RIBs and FIBs.

    A prefix *is* the tuple ``(network, length)``: every RIB, memo and
    dirty-set operation hashes and compares prefixes, and a tuple does
    both in C. It hashes and compares equal to its plain tuple, and
    orders by ``(network, length)``. Reading both fields, unpack it
    (``network, length = prefix``); each attribute read is a call.

    >>> Prefix.parse("192.0.2.0/24")
    Prefix.parse('192.0.2.0/24')
    """

    __slots__ = ()

    def __new__(cls, network: int, length: int) -> "Prefix":
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        if not 0 <= network <= _MAX_U32:
            raise AddressError(f"network out of range: {network:#x}")
        if network & ~_mask(length) & _MAX_U32:
            raise AddressError(f"host bits set in {IPv4Address(network)}/{length}")
        return tuple.__new__(cls, (network, length))

    network = property(itemgetter(0), doc="The network address as an int.")
    length = property(itemgetter(1), doc="The prefix length in bits.")

    def __getnewargs__(self) -> "tuple[int, int]":
        # pickle and copy rebuild through __new__, validation included.
        return tuple(self)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation. Strict: the address must be
        canonical (no host bits set); use :meth:`from_address` to mask."""
        addr_text, sep, len_text = text.partition("/")
        if not sep:
            raise AddressError(f"missing '/' in prefix {text!r}")
        if not _is_decimal(len_text):
            raise AddressError(f"bad prefix length in {text!r}")
        return cls(IPv4Address.parse(addr_text).value, int(len_text))

    @classmethod
    def from_address(cls, address: IPv4Address, length: int) -> "Prefix":
        """Build a prefix from an address, masking off host bits."""
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        return cls(address.value & _mask(length), length)

    @property
    def address(self) -> IPv4Address:
        return IPv4Address(self.network)

    @property
    def mask(self) -> int:
        return _mask(self.length)

    def contains(self, address: IPv4Address | int) -> bool:
        """True if *address* falls inside this prefix."""
        network, length = self
        return (int(address) & _mask(length)) == network

    def covers(self, other: "Prefix") -> bool:
        """True if this prefix contains the whole of *other*."""
        network, length = self
        other_network, other_length = other
        return length <= other_length and (other_network & _mask(length)) == network

    def first_address(self) -> IPv4Address:
        return IPv4Address(self.network)

    def last_address(self) -> IPv4Address:
        return IPv4Address(self.network | (~self.mask & _MAX_U32))

    def bits(self) -> str:
        """The prefix as a bit string of ``length`` characters (MSB first)."""
        if self.length == 0:
            return ""
        return format(self.network >> (32 - self.length), f"0{self.length}b")

    def __str__(self) -> str:
        return f"{self.address}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix.parse({str(self)!r})"


def iter_subnets(prefix: Prefix, new_length: int):
    """Yield the subnets of *prefix* at *new_length* in address order.

    >>> [str(p) for p in iter_subnets(Prefix.parse("10.0.0.0/30"), 31)]
    ['10.0.0.0/31', '10.0.0.2/31']
    """
    if new_length < prefix.length:
        raise AddressError(
            f"new length {new_length} shorter than prefix length {prefix.length}"
        )
    if new_length > 32:
        raise AddressError(f"prefix length out of range: {new_length}")
    step = 1 << (32 - new_length)
    for network in range(prefix.network, prefix.network + (1 << (32 - prefix.length)), step):
        yield Prefix(network, new_length)
