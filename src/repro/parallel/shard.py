"""One shard of a partitioned topology: a full harness, locally driven.

A :class:`ShardRuntime` wraps one :class:`~repro.sim.engine.Simulator`
plus the :class:`~repro.bgp.speaker.BgpSpeaker`\\ s of the ASes its
shard owns. It builds the **whole** harness from the cell spec — every
speaker, every policy, every handshake, every seeded link delay — so
that shard-local state is bit-equal to the serial engine's, then
intercepts the send callbacks of boundary links:

* local → local: untouched — packets travel inside the shard simulator
  exactly as they do serially;
* local → remote: the encoded packet goes to the outbox as a
  :class:`~repro.parallel.channel.RemoteUpdate` (counting the directed
  link, stamping ``now + delay`` as the arrival — the identical float
  the serial ``Simulator.schedule`` would have computed);
* remote → anything: a tripwire — a remote replica emitting a packet
  inside this shard is a bug, not a protocol event.

The coordinator (:mod:`repro.parallel.engine`) drives the runtime
through time windows; :func:`_shard_main` is the process entry point
speaking the pipe protocol. Per the fork-safety contract in
docs/PERF.md, the worker begins cold: :func:`repro.bgp.reset_caches`
runs before any cell state is built.
"""

from __future__ import annotations

import os
import time
from functools import partial

from repro.parallel.channel import RemoteUpdate, injection_key
from repro.parallel.partition import Partition

# How often an idle shard looks up from the request pipe to check it is
# still parented to its coordinator. Pipe EOF alone cannot be trusted
# for shutdown: sibling shards forked later inherit the earlier shards'
# pipe ends, so when the coordinator is SIGKILLed every shard holds
# every other shard's pipe open and EOF never arrives. Reparenting is
# unforgeable, so orphans self-terminate within a poll interval.
_ORPHAN_POLL_S = 0.5


class ParallelError(RuntimeError):
    """A shard-boundary violation or barrier-protocol failure."""


def _foreign_send(src: int, dst: int, data: bytes) -> None:
    """Send callback installed on remote replicas: must never fire."""
    raise ParallelError(
        f"remote replica AS {src} emitted a packet toward AS {dst} "
        f"inside a shard that does not own it"
    )


class ShardRuntime:
    """The live network slice one worker process simulates."""

    def __init__(
        self,
        cell,
        partition: Partition,
        index: int,
        sanitize: bool = False,
    ):
        from repro.topo.families import build_harness, phase_plans, pick_origins
        from repro.topo.network import peer_name

        # ParallelEngine, the only constructor, has already checked that
        # the partition covers the graph.
        self.cell = cell
        self.partition = partition
        self.index = index
        self.harness = build_harness(cell)
        self.local = frozenset(partition.shards[index])
        self.origins = pick_origins(self.harness.topology, cell.origins, cell.seed)
        self.local_origins = tuple(a for a in self.origins if a in self.local)
        self.plans = phase_plans(cell)
        self.outbox: "list[RemoteUpdate]" = []
        self._link_seq: "dict[tuple[int, int], int]" = {}
        self._peer_name = peer_name
        #: Process CPU seconds spent simulating: operational accounting
        #: only, never part of a result.
        self.busy_s = 0.0
        self._intercept_links()
        self.sanitizer = None
        if sanitize:
            from repro.topo.network import TopologySanitizer

            self.sanitizer = TopologySanitizer(self.harness)

    # -- wiring --------------------------------------------------------------

    def _intercept_links(self) -> None:
        for link in self.harness.links.values():
            for src, dst in ((link.a, link.b), (link.b, link.a)):
                if src in self.local and dst in self.local:
                    continue  # in-shard: serial wiring stands
                if src in self.local:
                    callback = partial(self._forward_remote, link, src, dst)
                else:
                    callback = partial(_foreign_send, src, dst)
                self.harness.nodes[src].speaker.set_send_callback(
                    self._peer_name(dst), callback
                )

    def _forward_remote(self, link, src: int, dst: int, data: bytes) -> None:
        link.count(src)
        now = self.harness.sim.now
        key = (src, dst)
        seq = self._link_seq.get(key, 0)
        self._link_seq[key] = seq + 1
        self.outbox.append(
            RemoteUpdate(
                src=src,
                dst=dst,
                sent_at=now,
                arrival=now + link.delay,
                seq=seq,
                payload=bytes(data),
            )
        )

    # -- coordinator-facing surface ------------------------------------------

    def next_time(self) -> "float | None":
        return self.harness.sim.peek_time()

    def now(self) -> float:
        return self.harness.sim.now

    def last_activity(self) -> float:
        return self.harness.last_activity

    def begin_phase(self, plan_index: int, start: float) -> None:
        """Align the clock to the global phase start, reset measurement
        at a measured-phase boundary, and schedule this shard's share of
        the phase's events — mirroring the serial ``_run_phases`` step
        for the origins this shard owns."""
        started = time.process_time()
        harness = self.harness
        if start > harness.sim.now:
            harness.sim.advance_to(start)
        plan = self.plans[plan_index]
        if plan.measured:
            from repro.topo.network import origin_prefix

            harness.reset_measurement()
            harness.start_watch([origin_prefix(asn) for asn in self.origins])
        plan.schedule(harness, self.local_origins)
        self.busy_s += time.process_time() - started

    def inject(self, messages: "list[RemoteUpdate]") -> None:
        """Schedule incoming remote packets as local arrival events, in
        the deterministic :func:`injection_key` order."""
        sim = self.harness.sim
        for message in sorted(messages, key=injection_key):
            if message.dst not in self.local:
                raise ParallelError(
                    f"shard {self.index} received a packet for AS "
                    f"{message.dst}, which it does not own"
                )
            node = self.harness.nodes[message.dst]
            sim.schedule_at(
                message.arrival,
                partial(node._arrive, self._peer_name(message.src), message.payload),
            )

    def run_window(self, window_end: float) -> "float | None":
        """Fire every local event strictly before *window_end*; leave the
        clock on the last fired event (never bumped to the barrier, so
        phase-relative scheduling stays bit-equal to serial)."""
        started = time.process_time()
        sim = self.harness.sim
        while True:
            next_time = sim.peek_time()
            if next_time is None or next_time >= window_end:
                break
            sim.fire_due(next_time)
        self.busy_s += time.process_time() - started
        return sim.peek_time()

    def drain_outbox(self) -> "list[RemoteUpdate]":
        drained, self.outbox = self.outbox, []
        return drained

    def check_quiescent(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.check_quiescent()

    def collect(self) -> "dict[str, object]":
        """This shard's slice of the cell result: counters for the ASes
        it owns (one row per AS, in :class:`~repro.topo.families.
        NodeReport` field order) and the link directions it transmitted
        on."""
        harness = self.harness
        nodes = [
            (
                asn,
                harness.topology.tier_of(asn),
                node.speaker.work.updates_sent,
                node.speaker.work.updates_processed,
                node.speaker.work.transactions,
                node.mrai_deferrals,
                node.ghost_paths,
                node.path_changes,
                node.loc_rib_size,
            )
            for asn, node in harness.nodes.items()
            if asn in self.local
        ]
        # Each direction is counted where its sender lives.
        link_packets = sum(
            (link.a_to_b_packets if link.a in self.local else 0)
            + (link.b_to_a_packets if link.b in self.local else 0)
            for link in harness.links.values()
        )
        damping = sum(
            harness.nodes[asn].speaker.audit.damping_suppressed
            for asn in harness.nodes
            if asn in self.local
        )
        return {
            "nodes": nodes,
            "link_packets": link_packets,
            "damping": damping,
            "quiescent": harness.sim.peek_time() is None,
            "now": harness.sim.now,
            "last_activity": harness.last_activity,
            "busy_s": self.busy_s,
        }


def _shard_main(conn, spec, shard_members, index, sanitize) -> None:
    """Shard process entry point — top-level so it pickles under spawn.

    Protocol (requests -> replies over *conn*):

    * ``("phase", plan_index, start)`` -> ``("ok", next_time, now, last)``
    * ``("round", window_end, messages)`` ->
      ``("ok", next_time, now, last, outbox)``
    * ``("collect",)`` -> ``("ok", payload)`` (runs the quiescent
      sanitizer check first when sanitizing)
    * ``("stop",)`` -> process exits

    Any exception is reported as ``("error", type_name, text)`` and the
    process exits; pipe EOF or reparenting away from the coordinator
    (the coordinator died) exits silently.
    """
    from repro.bgp import reset_caches

    reset_caches()  # fork-safety contract: workers begin cold (docs/PERF.md)
    coordinator = os.getppid()
    try:
        from repro.topo.families import TopoCell

        cell = TopoCell.from_spec(spec)
        partition = Partition(tuple(tuple(members) for members in shard_members))
        runtime = ShardRuntime(cell, partition, index, sanitize=sanitize)
        conn.send(("ok", runtime.next_time(), runtime.now(), runtime.last_activity()))
        while True:
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != coordinator:
                    return  # orphaned: see _ORPHAN_POLL_S
            try:
                request = conn.recv()
            except EOFError:
                return  # coordinator gone: nothing left to simulate for
            op = request[0]
            if op == "phase":
                runtime.begin_phase(request[1], request[2])
                conn.send(
                    ("ok", runtime.next_time(), runtime.now(), runtime.last_activity())
                )
            elif op == "round":
                runtime.inject(request[2])
                runtime.run_window(request[1])
                conn.send(
                    (
                        "ok",
                        runtime.next_time(),
                        runtime.now(),
                        runtime.last_activity(),
                        runtime.drain_outbox(),
                    )
                )
            elif op == "collect":
                runtime.check_quiescent()
                conn.send(("ok", runtime.collect()))
            elif op == "stop":
                return
            else:
                raise ParallelError(f"unknown shard request: {op!r}")
    except BaseException as error:  # noqa: BLE001 — report, never escape
        try:
            conn.send(("error", type(error).__name__, str(error)))
        except OSError:
            pass  # coordinator already gone
    finally:
        conn.close()
