"""IPv4 addressing, prefixes, packets, and checksums.

This package provides the low-level network substrate used by both the
BGP protocol implementation (:mod:`repro.bgp`) and the forwarding plane
(:mod:`repro.forwarding`): CIDR prefixes (RFC 1519/4632), the indexed
patricia trie (:class:`PrefixTrieMap`) that holds every RIB and the
FIB, an IPv4 header model, and the Internet checksum including the
incremental update of RFC 1624 used when rewriting the TTL during
forwarding.
"""

from repro.net.addr import IPv4Address, Prefix
from repro.net.checksum import internet_checksum, incremental_checksum_update
from repro.net.packet import IPv4Packet
from repro.net.trie import PrefixTrieMap

__all__ = [
    "IPv4Address",
    "Prefix",
    "PrefixTrieMap",
    "IPv4Packet",
    "internet_checksum",
    "incremental_checksum_update",
]
