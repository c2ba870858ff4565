"""Deterministic topology partitioning for the parallel engine.

A :class:`Partition` assigns every AS of an
:class:`~repro.workload.astopo.AsTopology` to exactly one shard. The
:class:`Partitioner` builds one with a min-cut-ish streaming heuristic
(linear deterministic greedy: highest-degree ASes first, each placed on
the shard holding most of its already-placed neighbours, under a
balance cap); :meth:`Partition.explicit` takes a hand-written
assignment for tests and experiments.

Everything here is a pure function of its inputs — no ambient
randomness — so the same topology and shard count always produce the
same cut, and with it the same cross-shard lookahead and barrier
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.workload.astopo import AsTopology


class PartitionError(ValueError):
    """An assignment that does not cover the topology exactly once."""


@dataclass(frozen=True)
class Partition:
    """An exact cover of the AS set by ``len(shards)`` shards.

    ``shards[i]`` is the sorted tuple of ASNs shard *i* owns. Shards
    may be empty (an explicit assignment can park everything on one
    shard); an ASN may appear exactly once across all shards.
    """

    shards: "tuple[tuple[int, ...], ...]"

    def __post_init__(self) -> None:
        if not self.shards:
            raise PartitionError("a partition needs at least one shard")
        owner: dict[int, int] = {}
        for index, members in enumerate(self.shards):
            if tuple(sorted(members)) != tuple(members):
                raise PartitionError(f"shard {index} members not sorted: {members}")
            for asn in members:
                if asn in owner:
                    raise PartitionError(
                        f"AS {asn} assigned to both shard {owner[asn]} "
                        f"and shard {index}"
                    )
                owner[asn] = index
        object.__setattr__(self, "_owner", owner)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def to_jsonable(self) -> "dict[str, object]":
        return {"shards": [list(members) for members in self.shards]}

    def shard_of(self, asn: int) -> int:
        try:
            return self._owner[asn]  # type: ignore[attr-defined]
        except KeyError:
            raise PartitionError(f"AS {asn} is not assigned to any shard") from None

    def validate_cover(self, ases: Iterable[int]) -> None:
        """Assert the partition covers *ases* exactly."""
        expected = set(ases)
        assigned = set(self._owner)  # type: ignore[attr-defined]
        missing = sorted(expected - assigned)
        extra = sorted(assigned - expected)
        if missing or extra:
            raise PartitionError(
                f"partition does not cover the topology: "
                f"missing={missing} extra={extra}"
            )

    def cross_links(
        self, links: "Iterable[tuple[int, int]]"
    ) -> "tuple[tuple[int, int], ...]":
        """The links whose endpoints live on different shards, in input
        order — the edges that set the engine's lookahead."""
        return tuple(
            (a, b) for a, b in links if self.shard_of(a) != self.shard_of(b)
        )

    @classmethod
    def explicit(
        cls, assignment: "Mapping[int, int]", shards: "int | None" = None
    ) -> "Partition":
        """Build from an ``{asn: shard_index}`` mapping (test mode).

        *shards* forces the shard count (allowing trailing empty
        shards); by default it is ``max(index) + 1``.
        """
        if not assignment:
            raise PartitionError("empty explicit assignment")
        count = max(assignment.values()) + 1 if shards is None else shards
        if count < 1:
            raise PartitionError(f"shard count must be >= 1: {count}")
        bad = sorted(
            asn for asn, index in assignment.items()
            if not 0 <= index < count
        )
        if bad:
            raise PartitionError(
                f"assignment indexes out of range 0..{count - 1} for ASes {bad}"
            )
        members: "list[list[int]]" = [[] for _ in range(count)]
        for asn in sorted(assignment):
            members[assignment[asn]].append(asn)
        return cls(tuple(tuple(shard) for shard in members))


@dataclass(frozen=True)
class Partitioner:
    """Cut a topology into *shards* balanced, locality-preserving parts."""

    shards: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise PartitionError(f"shard count must be >= 1: {self.shards}")

    def to_jsonable(self) -> "dict[str, object]":
        return {"shards": self.shards}

    def partition(self, topology: AsTopology) -> Partition:
        """Linear deterministic greedy placement.

        ASes are placed in descending-degree order (ties by ASN):
        hubs seed the shards, leaves follow their neighbourhoods. Each
        AS goes to the shard where it has the most already-placed
        neighbours — minimising new cut edges — tie-broken toward the
        lighter shard, then the lower index.

        Load is measured in **degree units** (``1 + degree``), not node
        count: a router's event work scales with its adjacency (hubs
        process and re-advertise most of the UPDATE traffic), so
        balancing degree balances the per-shard critical path. The
        balance cap is the ceiling of the average degree load; a shard
        under the cap may accept one more AS (and overshoot by that
        AS's weight), which keeps the greedy pass always feasible.
        """
        ases = topology.ases()
        count = min(self.shards, len(ases)) or 1
        weights = {asn: 1 + len(topology.neighbors(asn)) for asn in ases}
        capacity = -(-sum(weights.values()) // count)  # ceil
        assignment: dict[int, int] = {}
        loads = [0] * count
        order = sorted(ases, key=lambda asn: (-weights[asn], asn))
        for asn in order:
            scores = [0] * count
            for neighbor in topology.neighbors(asn):
                placed = assignment.get(neighbor)
                if placed is not None:
                    scores[placed] += 1
            best = min(
                (index for index in range(count) if loads[index] < capacity),
                key=lambda index: (-scores[index], loads[index], index),
            )
            assignment[asn] = best
            loads[best] += weights[asn]
        # Pad to the requested count so an explicit shard count of N
        # always yields N runtimes, even on tiny graphs.
        partition = Partition.explicit(assignment, shards=self.shards)
        return partition
