"""Topology benchmark families: convergence, withdraw-storm, churn.

Three benchmark families run an :class:`~repro.topo.network.
TopologyHarness` built from a seeded :class:`~repro.workload.astopo.
AsTopology` hierarchy:

* **convergence** — chosen stub ASes announce their prefix at t=0; the
  run measures time-to-quiescence and the total UPDATE count the graph
  needed to converge (the paper's phase-2 story at internet scale).
* **withdraw** — converge first (unmeasured setup), then the origins
  fail: the measured phase counts ghost paths (distinct transient best
  paths adopted during path exploration), per-node path changes, and
  the convergence tail after the WITHDRAW storm.
* **churn** — the origins flap for a configured number of cycles
  (announce at ``k * flap_interval``, withdraw half an interval later),
  with RFC 2439 flap damping on or off; the headline metric is
  prefix-level transactions per virtual second at graph scale.

A :class:`TopoCell` is the grid-compatible unit: it satisfies the
:class:`repro.grid.cells.Cell` protocol (``cell_id``, ``spec``,
``from_spec``, ``to_jsonable``, ``run``) without importing it, so the
executor, cache and golden gate all work on topo cells unchanged.
Everything is deterministic given the spec: two runs of one cell
produce byte-identical :func:`result_json` output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Mapping

from repro.topo.network import TopologyHarness, origin_prefix
from repro.workload.astopo import AsTopology

#: The registered topology benchmark families.
TOPO_FAMILIES = ("convergence", "withdraw", "churn")

#: Spec keys of the retired costed-node mode, at their one committed
#: value: the goldens and ledger digests hash them, so ``spec()`` (and
#: each ``nodes`` row, as ``false``) keeps them and ``from_spec`` refuses
#: any other value. The next re-bless of those digests drops them.
RETIRED_SPEC = {"measured": 0, "platform": "pentium3"}


@dataclass(frozen=True, slots=True, order=True)
class TopoCell:
    """One point of the topology benchmark grid."""

    family: str
    tier1: int = 2
    tier2: int = 5
    stubs: int = 18
    seed: int = 42
    link_delay: float = 0.01
    mrai: float = 0.0
    damping: bool = False
    origins: int = 1
    flaps: int = 4
    flap_interval: float = 60.0

    def __post_init__(self) -> None:
        if self.family not in TOPO_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; choose from {TOPO_FAMILIES}"
            )
        if min(self.tier1, self.tier2) < 1 or self.stubs < 2:
            raise ValueError(
                f"degenerate hierarchy {self.tier1}x{self.tier2}x{self.stubs}"
            )
        if not 1 <= self.origins <= self.stubs:
            raise ValueError(
                f"origins must be in 1..{self.stubs}: {self.origins}"
            )
        for name in ("link_delay", "mrai", "flap_interval"):
            # NaN slips through every range check below, inf through
            # all but one; either would reach the event heap as a time.
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        if self.link_delay <= 0:
            raise ValueError(f"link_delay must be positive: {self.link_delay}")
        if self.mrai < 0:
            raise ValueError(f"mrai must be >= 0: {self.mrai}")
        if self.flaps < 1:
            raise ValueError(f"flaps must be >= 1: {self.flaps}")
        if self.flap_interval <= 0:
            raise ValueError(
                f"flap_interval must be positive: {self.flap_interval}"
            )

    @property
    def cell_id(self) -> str:
        """Human-readable identifier; non-default knobs become suffixes."""
        parts = [
            f"topo-{self.family}",
            f"{self.tier1}x{self.tier2}x{self.stubs}",
            f"seed{self.seed}",
        ]
        if self.mrai:
            parts.append(f"mrai{self.mrai:g}")
        if self.damping:
            parts.append("damp")
        if self.origins != 1:
            parts.append(f"o{self.origins}")
        if self.family == "churn" and (self.flaps, self.flap_interval) != (4, 60.0):
            parts.append(f"flap{self.flaps}x{self.flap_interval:g}")
        return "-".join(parts)

    def spec(self) -> dict[str, object]:
        return {
            "kind": "topo",
            "family": self.family,
            "tier1": self.tier1,
            "tier2": self.tier2,
            "stubs": self.stubs,
            "seed": self.seed,
            "link_delay": self.link_delay,
            "mrai": self.mrai,
            "damping": self.damping,
            "origins": self.origins,
            "flaps": self.flaps,
            "flap_interval": self.flap_interval,
            **RETIRED_SPEC,
        }

    def to_jsonable(self) -> dict[str, object]:
        """Alias of :meth:`spec` — the cell *is* its spec."""
        return self.spec()

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "TopoCell":
        for key, value in RETIRED_SPEC.items():
            if spec.get(key, value) != value:
                raise ValueError(
                    f"{key} must be {value!r}, not {spec[key]!r}: a topology "
                    f"cell runs uncosted speakers only"
                )
        return cls(
            family=str(spec["family"]),
            tier1=int(spec["tier1"]),  # type: ignore[arg-type]
            tier2=int(spec["tier2"]),  # type: ignore[arg-type]
            stubs=int(spec["stubs"]),  # type: ignore[arg-type]
            seed=int(spec["seed"]),  # type: ignore[arg-type]
            link_delay=float(spec["link_delay"]),  # type: ignore[arg-type]
            mrai=float(spec["mrai"]),  # type: ignore[arg-type]
            damping=bool(spec["damping"]),
            origins=int(spec["origins"]),  # type: ignore[arg-type]
            flaps=int(spec["flaps"]),  # type: ignore[arg-type]
            flap_interval=float(spec["flap_interval"]),  # type: ignore[arg-type]
        )

    def run(
        self, sanitize: bool = False, telemetry_dir: "str | None" = None
    ) -> dict[str, object]:
        """The grid's entry: :func:`run_topo_cell` on this cell. A
        topology run is not traced, so a *telemetry_dir* is refused."""
        if telemetry_dir is not None:
            raise ValueError(f"{self.cell_id}: topology cells are not traced")
        return run_topo_cell(self, sanitize=sanitize)


@dataclass(frozen=True, slots=True)
class NodeReport:
    """One AS's measured-phase counters."""

    asn: int
    tier: int
    updates_sent: int
    updates_received: int
    transactions: int
    mrai_deferrals: int
    ghost_paths: int
    path_changes: int
    loc_rib_size: int

    def to_jsonable(self) -> dict[str, object]:
        return {
            "asn": self.asn,
            "tier": self.tier,
            "measured": bool(RETIRED_SPEC["measured"]),
            "updates_sent": self.updates_sent,
            "updates_received": self.updates_received,
            "transactions": self.transactions,
            "mrai_deferrals": self.mrai_deferrals,
            "ghost_paths": self.ghost_paths,
            "path_changes": self.path_changes,
            "loc_rib_size": self.loc_rib_size,
        }


@dataclass(slots=True)
class TopoResult:
    """Outcome of one topology cell's measured phase.

    Carries the five golden metrics (``transactions``,
    ``fib_size_after``, ``completed`` exact; ``duration``,
    ``transactions_per_second`` tolerant) at the top level of its
    jsonable form, so the grid's regression gate pins topo cells with
    the same machinery as scenario cells.
    """

    family: str
    ases: int
    links: int
    origin_ases: tuple[int, ...]
    duration: float
    convergence_time: float
    transactions: int
    updates_sent: int
    updates_received: int
    mrai_deferrals: int
    ghost_paths: int
    path_changes: int
    damping_suppressed: int
    link_packets: int
    fib_size_after: int
    completed: bool
    nodes: list[NodeReport]

    @property
    def transactions_per_second(self) -> float:
        return self.transactions / self.duration if self.duration > 0 else 0.0

    def to_jsonable(self) -> dict[str, object]:
        return {
            "family": self.family,
            "ases": self.ases,
            "links": self.links,
            "origin_ases": list(self.origin_ases),
            "duration": self.duration,
            "convergence_time": self.convergence_time,
            "transactions": self.transactions,
            "updates_sent": self.updates_sent,
            "updates_received": self.updates_received,
            "mrai_deferrals": self.mrai_deferrals,
            "ghost_paths": self.ghost_paths,
            "path_changes": self.path_changes,
            "damping_suppressed": self.damping_suppressed,
            "link_packets": self.link_packets,
            "fib_size_after": self.fib_size_after,
            "completed": self.completed,
            "transactions_per_second": self.transactions_per_second,
            "nodes": [node.to_jsonable() for node in self.nodes],
        }


def pick_origins(topology: AsTopology, count: int, seed: int) -> tuple[int, ...]:
    """The origin stub ASes of a cell: a seeded sample, sorted."""
    stubs = [asn for asn in topology.ases() if topology.tier_of(asn) == 3]
    if count > len(stubs):
        raise ValueError(f"cell wants {count} origins, topology has {len(stubs)} stubs")
    return tuple(sorted(random.Random(seed).sample(stubs, count)))


def _announce_all(harness: TopologyHarness, origins: "tuple[int, ...]") -> None:
    for asn in origins:
        harness.sim.schedule(
            0.0, partial(harness.nodes[asn].originate, origin_prefix(asn))
        )


def _withdraw_all(harness: TopologyHarness, origins: "tuple[int, ...]") -> None:
    for asn in origins:
        harness.sim.schedule(
            0.0, partial(harness.nodes[asn].withdraw, origin_prefix(asn))
        )


def _schedule_flaps(
    flaps: int,
    flap_interval: float,
    harness: TopologyHarness,
    origins: "tuple[int, ...]",
) -> None:
    for asn in origins:
        node = harness.nodes[asn]
        prefix = origin_prefix(asn)
        for flap in range(flaps):
            harness.sim.schedule(flap * flap_interval, partial(node.originate, prefix))
            harness.sim.schedule(
                flap * flap_interval + flap_interval / 2,
                partial(node.withdraw, prefix),
            )


@dataclass(frozen=True, slots=True)
class PhasePlan:
    """One phase of a family: what gets scheduled, and whether the
    phase is the measured one.

    The single definition both engines execute: the serial runner
    (:func:`_run_phases`) schedules each plan against the whole origin
    set, a :class:`~repro.parallel.shard.ShardRuntime` schedules the
    same plan against the origins its shard owns — so the event
    population is identical by construction. ``schedule`` is called as
    ``schedule(harness, origins)`` with the simulator clock already at
    the phase start; scheduled delays are phase-relative.
    """

    name: str
    measured: bool
    schedule: "object"  # Callable[[TopologyHarness, tuple[int, ...]], None]

    def to_jsonable(self) -> "dict[str, object]":
        # The schedule callable never serialises: both engines rebuild
        # plans from the cell spec via phase_plans(), so the wire shape
        # is the identity of the phase, not its behaviour.
        return {"name": self.name, "measured": self.measured}


def phase_plans(cell: TopoCell) -> "tuple[PhasePlan, ...]":
    """The family's phase sequence. The measured phase is always last
    (collection reads the post-run harness state)."""
    if cell.family == "convergence":
        return (PhasePlan("announce", True, _announce_all),)
    if cell.family == "withdraw":
        return (
            PhasePlan("setup", False, _announce_all),
            PhasePlan("withdraw", True, _withdraw_all),
        )
    return (
        PhasePlan(
            "flap", True, partial(_schedule_flaps, cell.flaps, cell.flap_interval)
        ),
    )


def _collect(
    cell: TopoCell,
    harness: TopologyHarness,
    origins: "tuple[int, ...]",
    phase_start: float,
) -> TopoResult:
    last = harness.last_activity
    duration = max(0.0, last - phase_start)
    nodes = [
        NodeReport(
            asn=asn,
            tier=harness.topology.tier_of(asn),
            updates_sent=node.speaker.work.updates_sent,
            updates_received=node.speaker.work.updates_processed,
            transactions=node.speaker.work.transactions,
            mrai_deferrals=node.mrai_deferrals,
            ghost_paths=node.ghost_paths,
            path_changes=node.path_changes,
            loc_rib_size=node.loc_rib_size,
        )
        for asn, node in harness.nodes.items()
    ]
    return TopoResult(
        family=cell.family,
        ases=len(harness.topology),
        links=len(harness.links),
        origin_ases=origins,
        duration=duration,
        convergence_time=duration,
        transactions=sum(node.transactions for node in nodes),
        updates_sent=sum(node.updates_sent for node in nodes),
        updates_received=sum(node.updates_received for node in nodes),
        mrai_deferrals=sum(node.mrai_deferrals for node in nodes),
        ghost_paths=sum(node.ghost_paths for node in nodes),
        path_changes=sum(node.path_changes for node in nodes),
        damping_suppressed=sum(
            node.speaker.audit.damping_suppressed for node in harness.nodes.values()
        ),
        link_packets=sum(
            link.a_to_b_packets + link.b_to_a_packets
            for link in harness.links.values()
        ),
        fib_size_after=harness.total_routes(),
        completed=harness.quiescent(),
        nodes=nodes,
    )


def _run_phases(
    cell: TopoCell, harness: TopologyHarness, origins: "tuple[int, ...]"
) -> TopoResult:
    """Run the family's phase plans serially and collect the result.

    At each measured-phase boundary the work ledgers reset and ghost-path
    watching (re)starts, exactly as the parallel shards do — keeping the
    two engines event-for-event equivalent is the whole point of
    expressing families as :class:`PhasePlan` data."""
    start = harness.sim.now
    for plan in phase_plans(cell):
        if plan.measured:
            harness.reset_measurement()
            harness.start_watch([origin_prefix(asn) for asn in origins])
            start = harness.sim.now
        plan.schedule(harness, origins)
        harness.run()
    return _collect(cell, harness, origins, start)


def build_harness(cell: TopoCell) -> TopologyHarness:
    """The live network a cell runs on, fully determined by the spec."""
    topology = AsTopology.hierarchy(
        tier1=cell.tier1, tier2=cell.tier2, stubs=cell.stubs, seed=cell.seed
    )
    return TopologyHarness(
        topology,
        seed=cell.seed,
        link_delay=cell.link_delay,
        mrai_interval=cell.mrai,
        damping=cell.damping,
    )


def run_topo_cell(cell: TopoCell, sanitize: bool = False) -> dict[str, object]:
    """Execute one topology cell from scratch; JSON-ready result.

    What :meth:`TopoCell.run` (and so :func:`repro.grid.cells.
    run_cell`) executes: metrics at the top level plus the cell spec
    under ``"cell"``, deterministic given the spec.

    With ``sanitize=True`` a :class:`~repro.topo.network.
    TopologySanitizer` observes every event and the quiescent
    invariants are asserted over the whole graph after the run; it
    observes only, so the result is byte-identical either way.

    This is the serial engine. The parallel engine
    (:meth:`repro.parallel.ParallelEngine.run_json`) returns the same
    bytes; only ``bgpbench topo --shards`` reaches it.
    """
    harness = build_harness(cell)
    origins = pick_origins(harness.topology, cell.origins, cell.seed)
    sanitizer = None
    if sanitize:
        from repro.topo.network import TopologySanitizer

        sanitizer = TopologySanitizer(harness)
    try:
        result = _run_phases(cell, harness, origins)
        if sanitizer is not None:
            sanitizer.check_quiescent()
    finally:
        if sanitizer is not None:
            sanitizer.detach()
    summary = result.to_jsonable()
    summary["cell"] = cell.spec()
    return summary


def default_topo_grid() -> list[TopoCell]:
    """The small topo grid the golden baseline pins: one cell per
    family on a 25-AS hierarchy, plus churn with damping on."""
    return [
        TopoCell(family="convergence"),
        TopoCell(family="withdraw"),
        TopoCell(family="churn"),
        TopoCell(family="churn", damping=True),
    ]
