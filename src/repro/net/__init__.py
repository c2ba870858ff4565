"""IPv4 addresses and CIDR prefixes.

This package provides the low-level network substrate used by both the
BGP protocol implementation (:mod:`repro.bgp`) and the forwarding plane
(:mod:`repro.forwarding`): addresses and CIDR prefixes (RFC 1519/4632).
"""

from repro.net.addr import IPv4Address, Prefix

__all__ = [
    "IPv4Address",
    "Prefix",
]
