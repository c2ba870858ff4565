"""UPDATE packet stream builders for the benchmark phases.

Streams are lists of wire-format packets. "Small" packets carry one
UPDATE with a single prefix; "large" packets carry one UPDATE with 500
prefixes (paper §III.D). Prefixes grouped into one UPDATE share one
attribute set, so path variation happens per message, exactly as a
table-dump replay would produce. A message is cut at the packing or at
the 4096-octet limit, whichever binds first — the rule the speaker's
own output follows (:func:`repro.bgp.messages.nlri_chunks`).
"""

from __future__ import annotations

from repro.bgp import register_cache_clear
from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.messages import UpdateMessage, nlri_chunks
from repro.net.addr import IPv4Address
from repro.workload.tablegen import RouteEntry, SyntheticTable

#: The paper's "large packet" UPDATE size.
LARGE_UPDATE_PREFIXES = 500

#: Encoded announcement streams of a :class:`SyntheticTable` by
#: ``(id(table), speaker AS, next hop, packing, extra_hops)``, each held
#: beside its table so the id cannot be reused while the entry lives: a
#: scenario asks for the same stream on every platform. Pure memoization
#: under the fork-safety contract (docs/PERF.md), like
#: :mod:`repro.workload.tablegen`'s tables: a table is immutable, a
#: stream is a deterministic function of it and the rest of the key, and
#: :func:`repro.bgp.reset_caches` empties the memo. A full memo stops
#: admitting instead of evicting.
_STREAM_CAPACITY = 64
_streams: "dict[tuple, tuple[SyntheticTable, tuple[bytes, ...]]]" = {}
register_cache_clear(_streams.clear)


class UpdateStreamBuilder:
    """Builds the per-speaker packet streams of the benchmark phases."""

    def __init__(self, speaker_asn: int, next_hop: IPv4Address):
        self.speaker_asn = speaker_asn
        self.next_hop = next_hop

    def _attributes(self, entry: RouteEntry, extra_hops: int) -> PathAttributes:
        return PathAttributes(
            origin=Origin.IGP,
            as_path=AsPath.from_asns(entry.path_via(self.speaker_asn, extra_hops)),
            next_hop=self.next_hop,
        )

    def announcements(
        self,
        table: "SyntheticTable | list[RouteEntry]",
        prefixes_per_update: int = 1,
        extra_hops: int = 0,
    ) -> list[bytes]:
        """Announcement packets for every entry, *extra_hops* controlling
        the AS-path length variant (0 = baseline, >0 = longer, -2 =
        shorter; see :meth:`RouteEntry.path_via`)."""
        if prefixes_per_update < 1:
            raise ValueError("prefixes_per_update must be >= 1")
        if not isinstance(table, SyntheticTable):
            # A list of entries may change under the caller's hands.
            return self._encode_announcements(table, prefixes_per_update, extra_hops)
        key = (id(table), self.speaker_asn, self.next_hop, prefixes_per_update, extra_hops)
        held = _streams.get(key)
        if held is None:
            held = table, tuple(
                self._encode_announcements(table, prefixes_per_update, extra_hops)
            )
            if len(_streams) < _STREAM_CAPACITY:
                _streams[key] = held
        return list(held[1])

    def _encode_announcements(
        self,
        table: "SyntheticTable | list[RouteEntry]",
        prefixes_per_update: int,
        extra_hops: int,
    ) -> list[bytes]:
        entries = list(table)
        prefixes = [entry.prefix for entry in entries]
        packets = []
        start = 0
        while start < len(entries):
            # The first entry's path is the message's: cut what follows
            # to fit beside its attributes.
            attrs = self._attributes(entries[start], extra_hops)
            batch = prefixes[start : start + prefixes_per_update]
            nlri = nlri_chunks(batch, prefixes_per_update, attrs)[0]
            packets.append(UpdateMessage(attributes=attrs, nlri=nlri).encode())
            start += len(nlri)
        return packets

    def withdrawals(
        self,
        table: "SyntheticTable | list[RouteEntry]",
        prefixes_per_update: int = 1,
    ) -> list[bytes]:
        """Withdrawal packets for every entry."""
        if prefixes_per_update < 1:
            raise ValueError("prefixes_per_update must be >= 1")
        prefixes = [entry.prefix for entry in table]
        return [
            UpdateMessage(withdrawn=withdrawn).encode()
            for withdrawn in nlri_chunks(prefixes, prefixes_per_update, None)
        ]

    def flap_storm(
        self,
        table: "SyntheticTable | list[RouteEntry]",
        rounds: int,
        prefixes_per_update: int = 1,
    ) -> list[bytes]:
        """An announce/withdraw storm: *rounds* alternating passes over
        the table — the worm-event workload of the paper's discussion
        (updates 2–3 orders of magnitude above steady state, ref. [6])."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        packets: list[bytes] = []
        for round_index in range(rounds):
            if round_index % 2 == 0:
                packets.extend(
                    self.announcements(
                        table,
                        prefixes_per_update,
                        extra_hops=round_index % 3,
                    )
                )
            else:
                packets.extend(self.withdrawals(table, prefixes_per_update))
        return packets
