"""The cross-shard message channel: encoded UPDATEs with sequencing.

A :class:`RemoteUpdate` is one BGP packet crossing a shard boundary:
the encoded wire bytes exactly as the zero-copy codec emitted them
(the receiving shard decodes them through the same
:func:`repro.bgp.messages.iter_messages` path a local delivery takes),
plus the metadata the coordinator needs to route and order it —
source/destination ASN, send and arrival timestamps, and a per-directed-
link sequence number.

The sequence number is what makes cross-shard delivery deterministic:
packets on one directed link form a FIFO (same propagation delay, so
same-instant emissions arrive at the same instant), and
:func:`injection_key` replays them into the destination simulator in
exactly the order the serial engine would have scheduled them —
``(arrival time, source ASN, destination ASN, link sequence)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RemoteUpdate:
    """One encoded BGP packet in flight between shards."""

    src: int
    dst: int
    sent_at: float
    arrival: float
    seq: int
    payload: bytes

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "src": self.src,
            "dst": self.dst,
            "sent_at": self.sent_at,
            "arrival": self.arrival,
            "seq": self.seq,
            "payload_len": len(self.payload),
        }


def injection_key(message: RemoteUpdate) -> "tuple[float, int, int, int]":
    """Deterministic scheduling order for a batch of remote updates."""
    return (message.arrival, message.src, message.dst, message.seq)
