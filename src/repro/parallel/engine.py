"""The conservative parallel coordinator: time-window barriers.

:class:`ParallelEngine` runs one topology cell across N shard processes
under Chandy–Misra-style conservative synchronization. Each round it
computes the lower bound on the timestamp of any unprocessed event —
the minimum over every shard's next local event and every message still
in flight — and grants the window ``[LBTS, LBTS + lookahead)``, where
the lookahead is the smallest propagation delay of any cross-shard
link. No packet emitted inside a window can arrive before the window
ends (send time ≥ LBTS, delay ≥ lookahead, and float rounding is
monotone), so every shard can fire its sub-window events without ever
receiving a straggler from the past: results are bit-identical to the
serial engine, and the golden gate holds at zero tolerance.

Between phases the coordinator re-aligns every shard to the global
clock (the max over shard clocks — exactly where the serial simulator
would stand), so phase-relative schedules stay float-equal. Failure
semantics: a shard that dies, reports an error, or misses a barrier
deadline aborts the cell with :class:`ParallelError`.

``bgpbench topo --shards N`` is the one caller in the package: no grid,
supervisor or cell runner reaches this module.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field

from repro.parallel.channel import RemoteUpdate
from repro.parallel.partition import Partition, Partitioner
from repro.parallel.shard import ParallelError, _shard_main
from repro.workload.astopo import AsTopology

#: Cross-shard link delays at or below this are rejected: a zero (or
#: denormal-tiny) lookahead would shrink every window to a point and
#: the barrier protocol could not advance.
LOOKAHEAD_FLOOR = 1e-9

#: Grace period for joining shard processes during teardown (seconds).
_JOIN_GRACE = 2.0


def _now() -> float:
    """Wall-clock read for policing real shard processes. Deliberate
    ambient state: barrier deadlines are operational and never feed
    back into cell results."""
    return time.monotonic()


@dataclass(slots=True)
class ParallelStats:
    """Operational accounting of one parallel run (never in results)."""

    shards: int
    lookahead: float
    cross_links: int
    rounds: int = 0
    remote_messages: int = 0
    #: CPU seconds each shard process spent simulating (from collect
    #: replies) — process time, so co-scheduled shards on a small
    #: machine don't bill each other's preemption.
    busy_s: "list[float]" = field(default_factory=list)

    def to_jsonable(self) -> "dict[str, object]":
        return {
            "shards": self.shards,
            "lookahead": self.lookahead if math.isfinite(self.lookahead) else None,
            "cross_links": self.cross_links,
            "rounds": self.rounds,
            "remote_messages": self.remote_messages,
            "busy_s": [round(busy, 6) for busy in self.busy_s],
        }


class ParallelEngine:
    """Coordinate shard processes through phase and window barriers."""

    def __init__(
        self,
        cell,
        shards: "int | None" = None,
        partition: "Partition | None" = None,
        sanitize: bool = False,
        round_timeout: "float | None" = None,
    ):
        from repro.topo.families import phase_plans, pick_origins
        from repro.topo.network import draw_link_delays

        self.topology = AsTopology.hierarchy(
            tier1=cell.tier1, tier2=cell.tier2, stubs=cell.stubs, seed=cell.seed
        )
        if partition is None:
            if shards is None:
                raise ParallelError("need a shard count or an explicit partition")
            partition = Partitioner(shards).partition(self.topology)
        self.cell = cell
        self.partition = partition
        self.sanitize = sanitize
        self.round_timeout = round_timeout
        partition.validate_cover(self.topology.ases())
        self.delays = draw_link_delays(self.topology, cell.seed, cell.link_delay)
        cross = partition.cross_links(self.delays)
        too_fast = sorted(
            (a, b) for a, b in cross if self.delays[(a, b)] <= LOOKAHEAD_FLOOR
        )
        if too_fast:
            raise ParallelError(
                f"cross-shard links with delay <= {LOOKAHEAD_FLOOR:g}s give the "
                f"conservative engine no lookahead: {too_fast[:5]}"
                f"{'...' if len(too_fast) > 5 else ''} — raise link_delay or "
                f"keep those links inside one shard"
            )
        self.lookahead = min((self.delays[link] for link in cross), default=math.inf)
        self.origins = pick_origins(self.topology, cell.origins, cell.seed)
        self.plans = phase_plans(cell)
        self.stats = ParallelStats(
            shards=partition.n_shards,
            lookahead=self.lookahead,
            cross_links=len(cross),
        )
        self._conns: list = []
        self._procs: list = []
        self._reports: "list[dict]" = []

    # -- process/pipe plumbing ----------------------------------------------

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context()
        for index in range(self.partition.n_shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_shard_main,
                args=(
                    child_conn,
                    self.cell.spec(),
                    self.partition.shards,
                    index,
                    self.sanitize,
                ),
                name=f"{self.cell.cell_id}-shard{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    def _teardown(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for process in self._procs:
            if process.is_alive():
                process.terminate()
            process.join(_JOIN_GRACE)
            if process.is_alive():
                process.kill()
                process.join(_JOIN_GRACE)
            process.close()
        self._conns = []
        self._procs = []

    def _send(self, index: int, request: tuple) -> None:
        try:
            self._conns[index].send(request)
        except OSError:
            raise ParallelError(
                f"[cell {self.cell.cell_id}] shard {index} died without reporting"
            ) from None

    def _broadcast(self, request: tuple) -> None:
        for index in range(len(self._conns)):
            self._send(index, request)

    def _gather(self) -> "list[tuple]":
        """One reply per shard, in shard order; raises on error/EOF or a
        missed barrier deadline."""
        cell_id = self.cell.cell_id
        deadline = None if self.round_timeout is None else _now() + self.round_timeout
        replies = []
        for index, conn in enumerate(self._conns):
            remaining = None if deadline is None else max(0.0, deadline - _now())
            if not conn.poll(remaining):
                raise ParallelError(
                    f"[cell {cell_id}] shard {index} missed the barrier "
                    f"within {self.round_timeout:g}s wall clock (straggler)"
                )
            try:
                message = conn.recv()
            except (EOFError, OSError):
                raise ParallelError(
                    f"[cell {cell_id}] shard {index} died without reporting"
                ) from None
            if message[0] == "error":
                raise ParallelError(
                    f"[cell {cell_id}] shard {index}: {message[1]}: {message[2]}"
                )
            replies.append(message[1:])
        return replies

    # -- the barrier protocol -----------------------------------------------

    def run(self):
        """Run every phase to global quiescence; the merged
        :class:`~repro.topo.families.TopoResult`."""
        try:
            self._spawn()
            states = self._gather()  # ready: (next_time, now, last_activity)
            global_now = 0.0
            phase_start = 0.0
            for plan_index, plan in enumerate(self.plans):
                if plan.measured:
                    phase_start = global_now
                self._broadcast(("phase", plan_index, global_now))
                states = self._gather()
                pending: "list[RemoteUpdate]" = []
                while True:
                    bounds = [state[0] for state in states if state[0] is not None]
                    bounds.extend(message.arrival for message in pending)
                    if not bounds:
                        break  # phase quiescent: no events, nothing in flight
                    window_end = min(bounds) + self.lookahead
                    inboxes: "list[list[RemoteUpdate]]" = [
                        [] for _ in self._conns
                    ]
                    for message in pending:
                        inboxes[self.partition.shard_of(message.dst)].append(message)
                    for index, inbox in enumerate(inboxes):
                        self._send(index, ("round", window_end, inbox))
                    replies = self._gather()
                    states = [reply[:3] for reply in replies]
                    pending = [
                        message for reply in replies for message in reply[3]
                    ]
                    self.stats.rounds += 1
                    self.stats.remote_messages += len(pending)
                global_now = max(state[1] for state in states)
            self._broadcast(("collect",))
            self._reports = [reply[0] for reply in self._gather()]
            self._broadcast(("stop",))
            return self._merge(phase_start)
        finally:
            self._teardown()

    # -- merging -------------------------------------------------------------

    def _merge(self, phase_start: float):
        from repro.topo.families import NodeReport, TopoResult

        reports = self._reports
        rows = sorted(
            (row for report in reports for row in report["nodes"]),
            key=lambda row: row[0],
        )
        if [row[0] for row in rows] != list(self.topology.ases()):
            raise ParallelError(
                f"[cell {self.cell.cell_id}] shards did not report every AS "
                f"exactly once"
            )
        nodes = [NodeReport(*row) for row in rows]
        self.stats.busy_s = [report["busy_s"] for report in reports]
        last = max(report["last_activity"] for report in reports)
        duration = max(0.0, last - phase_start)
        return TopoResult(
            family=self.cell.family,
            ases=len(self.topology),
            links=len(self.delays),
            origin_ases=self.origins,
            duration=duration,
            convergence_time=duration,
            transactions=sum(node.transactions for node in nodes),
            updates_sent=sum(node.updates_sent for node in nodes),
            updates_received=sum(node.updates_received for node in nodes),
            mrai_deferrals=sum(node.mrai_deferrals for node in nodes),
            ghost_paths=sum(node.ghost_paths for node in nodes),
            path_changes=sum(node.path_changes for node in nodes),
            damping_suppressed=sum(report["damping"] for report in reports),
            link_packets=sum(report["link_packets"] for report in reports),
            fib_size_after=sum(node.loc_rib_size for node in nodes),
            completed=all(report["quiescent"] for report in reports),
            nodes=nodes,
        )

    def run_json(self) -> "dict[str, object]":
        """:meth:`run`, returned as the JSON-ready result — byte-identical
        to :func:`repro.topo.families.run_topo_cell` run serially."""
        summary = self.run().to_jsonable()
        summary["cell"] = self.cell.spec()
        return summary
