"""Synthetic routing-table generation.

The paper's speakers inject "a large routing table" taken from an
operational environment (the 2007 Internet held ~180 000 prefixes,
§I). Operational feeds are not available offline, so we generate a
synthetic table whose *prefix-length distribution* matches the
published Internet mix of the era — the property that determines UPDATE
message sizes (and therefore the small/large packet behaviour the
benchmark distinguishes). Which concrete prefixes appear is irrelevant
to BGP processing cost, so they are drawn from a seeded PRNG.

Every entry also carries an origin AS and two transit ASNs, from which
the per-scenario AS paths are derived: Speaker 1 announces a 4-hop
path, Speaker 2's "longer path" variant has 6 hops and its "shorter
path" variant 2 hops (paper scenarios 5–8).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from repro.bgp import register_cache_clear
from repro.net.addr import Prefix

#: Approximate share of table entries by prefix length, modeled on the
#: 2007 global table (dominated by /24s, with mass at /16 and /19–/22).
PREFIX_LENGTH_MIX: tuple[tuple[int, float], ...] = (
    (8, 0.001),
    (12, 0.002),
    (13, 0.004),
    (14, 0.008),
    (15, 0.010),
    (16, 0.080),
    (17, 0.030),
    (18, 0.045),
    (19, 0.080),
    (20, 0.060),
    (21, 0.050),
    (22, 0.070),
    (23, 0.050),
    (24, 0.510),
)

#: Running totals of the mix, summed in :data:`PREFIX_LENGTH_MIX` order.
_CUMULATIVE_SHARE = tuple(accumulate(share for _length, share in PREFIX_LENGTH_MIX))

#: Network mask of each prefix length 0-32.
_MASKS = tuple((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in range(33))

#: First-octet range for generated prefixes: stay inside conventional
#: unicast space and away from 0/8, 10/8, 127/8, and 224/4.
_FIRST_OCTET_CHOICES = tuple(
    octet for octet in range(1, 224) if octet not in (10, 127)
)


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """One table entry: a prefix plus the AS-path raw material."""

    prefix: Prefix
    origin_as: int
    transit: tuple[int, ...]

    def path_via(self, speaker_as: int, extra_hops: int = 0) -> tuple[int, ...]:
        """The AS path Speaker *speaker_as* announces for this entry.

        ``extra_hops = 0`` gives the 4-hop baseline (speaker, two
        transits, origin); positive values insert additional transit
        hops ("longer AS PATH", scenario 5/6); ``extra_hops = -2`` drops
        the transits entirely ("shorter AS PATH", scenario 7/8).
        """
        if extra_hops <= -2:
            return (speaker_as, self.origin_as)
        middle = list(self.transit)
        if extra_hops == -1:
            middle = middle[:1]
        else:
            base = self.transit[0]
            # Deterministic synthetic transit hops, distinct from the rest.
            middle.extend(30000 + (base + i) % 20000 for i in range(extra_hops))
        return (speaker_as, *middle, self.origin_as)


@dataclass(frozen=True, slots=True)
class SyntheticTable:
    """A generated routing table: an immutable sequence of unique entries.

    Immutable because :func:`generate_table` hands the same instance to
    every caller that asks for the same ``(size, seed)``.
    """

    entries: tuple[RouteEntry, ...] = field(repr=False)
    seed: int

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def prefixes(self) -> list[Prefix]:
        return [entry.prefix for entry in self.entries]

    def length_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for entry in self.entries:
            histogram[entry.prefix.length] = histogram.get(entry.prefix.length, 0) + 1
        return histogram


def _draw_length(rng: random.Random) -> int:
    # The first length whose running total exceeds the roll.
    index = bisect_right(_CUMULATIVE_SHARE, rng.random())
    return PREFIX_LENGTH_MIX[min(index, len(PREFIX_LENGTH_MIX) - 1)][0]


def draw_unique_prefixes(rng: random.Random, size: int) -> list[Prefix]:
    """Draw *size* distinct prefixes following the published length mix."""
    seen: set[Prefix] = set()
    prefixes: list[Prefix] = []
    while len(prefixes) < size:
        length = _draw_length(rng)
        first_octet = rng.choice(_FIRST_OCTET_CHOICES)
        rest = rng.getrandbits(24)
        network = (first_octet << 24) | rest
        prefix = Prefix(network & _MASKS[length], length)
        if prefix in seen:
            continue
        seen.add(prefix)
        prefixes.append(prefix)
    return prefixes


#: Generated tables by ``(size, seed)``: every cell of a run asks for
#: the same table (Table III asks 32 times for one). Value-keyed pure
#: memoization under the fork-safety contract (docs/PERF.md): a table is
#: a deterministic function of its key and immutable, and
#: :func:`repro.bgp.reset_caches` empties the memo. A full memo evicts its
#: oldest entry, so the newest table is always held.
_TABLE_CAPACITY = 16
_tables: "dict[tuple[int, int], SyntheticTable]" = {}
register_cache_clear(_tables.clear)


def generate_table(size: int, seed: int = 42) -> SyntheticTable:
    """Generate *size* unique route entries, deterministically from *seed*.

    Repeated calls return the same immutable table.
    """
    table = _tables.get((size, seed))
    if table is not None:
        return table
    if size < 0:
        raise ValueError(f"negative table size: {size}")
    rng = random.Random(seed)
    entries = tuple(
        RouteEntry(
            prefix,
            origin_as=rng.randrange(1000, 29000),
            transit=(rng.randrange(1000, 29000), rng.randrange(1000, 29000)),
        )
        for prefix in draw_unique_prefixes(rng, size)
    )
    table = SyntheticTable(entries, seed)
    if len(_tables) >= _TABLE_CAPACITY:
        del _tables[next(iter(_tables))]
    _tables[size, seed] = table
    return table
