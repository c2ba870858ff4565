"""Wall-clock probes around the boundary callables of each ``repro`` layer.

The ledger measures layers from outside: nothing under ``src/`` knows
it is being timed. :data:`PROBES` names, per layer, the callables at
that layer's boundary — the public functions other layers call, plus
the entry points the simulator fires into a layer as event callbacks
(``SpeakerNode._arrive``, ``XorpRouter._arrive`` ...), without which a
callback's time would be billed to the event loop that fired it.

:meth:`Tracer.install` replaces each target with a timing wrapper:
class attributes on the class, module functions in every ``repro.*``
module whose globals hold the same object. The wrappers share one
nesting stack, so a span's *self* time is its duration minus the time
its child spans cover, and the self times of all spans sum to the wall
covered by root spans. Hot probes only add to counters; coarse probes
(build, phase, collect, grid cell) also keep a span record for the
Chrome trace.

Install before any ``repro`` object is built: an instance that cached a
bound method earlier keeps calling the original.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter
from typing import Callable

#: layer -> ``module:attr`` / ``module:Class.attr`` targets, in pipeline order.
PROBES: "dict[str, tuple[str, ...]]" = {
    "workload": (
        "repro.workload.tablegen:generate_table",
        "repro.workload.updates:UpdateStreamBuilder.announcements",
        "repro.workload.updates:UpdateStreamBuilder.withdrawals",
        "repro.workload.astopo:AsTopology.hierarchy",
        "repro.workload.astopo:AsTopology.neighbors",
        "repro.workload.astopo:AsTopology.links",
    ),
    "systems": (
        "repro.systems.platforms:build_system",
        "repro.systems.router:RouterSystem.add_peer",
        "repro.systems.router:RouterSystem.handshake",
        "repro.systems.router:RouterSystem.reset_counters",
        "repro.systems.router:RouterSystem.run_until_idle",
        "repro.systems.router:RouterSystem._functional_receive",
        "repro.systems.router:RouterSystem._functional_flush",
        "repro.systems.router:RouterSystem._packet_done",
        "repro.systems.router:XorpRouter.deliver",
        "repro.systems.router:XorpRouter._arrive",
        "repro.systems.router:XorpRouter._submit_chain",
        "repro.systems.router:XorpRouter.set_cross_traffic",
        "repro.systems.router:XorpRouter.schedule_initial_advertisement",
        "repro.systems.router:CiscoRouter.deliver",
        "repro.systems.router:CiscoRouter._enqueue",
        "repro.systems.router:CiscoRouter._release",
        "repro.systems.router:CiscoRouter._finish",
        "repro.systems.router:CiscoRouter.set_cross_traffic",
        "repro.systems.router:CiscoRouter.schedule_initial_advertisement",
        "repro.systems.costs:charges_for",
        "repro.systems.costs:export_charges",
    ),
    "sim.engine": (
        "repro.sim.engine:Simulator.schedule",
        "repro.sim.engine:Simulator.schedule_at",
        "repro.sim.engine:Simulator.fire_due",
        "repro.sim.engine:Simulator.run",
        "repro.sim.engine:Simulator.peek_time",
        "repro.sim.engine:Simulator.advance_to",
        "repro.sim.engine:EventHandle.cancel",
        "repro.sim.engine:EventHandle.reschedule",
    ),
    "sim.cpu": (
        "repro.sim.cpu:World.run",
        "repro.sim.cpu:World.idle",
        "repro.sim.cpu:World.new_machine",
        "repro.sim.cpu:Machine.new_task",
        "repro.sim.cpu:Task.submit",
        "repro.sim.cpu:Task.set_continuous_demand",
        "repro.sim.cpu:Task.set_background_demand",
    ),
    "bgp.messages": (
        "repro.bgp.messages:decode_message",
        "repro.bgp.messages:UpdateMessage.encode",
        "repro.bgp.messages:OpenMessage.encode",
        "repro.bgp.messages:KeepaliveMessage.encode",
        "repro.bgp.messages:NotificationMessage.encode",
    ),
    "bgp.attributes": (
        "repro.bgp.attributes:encode_attributes",
        "repro.bgp.attributes:decode_attributes_cached",
        "repro.bgp.attributes:intern_attributes",
        "repro.bgp.attributes:PathAttributes.with_prepended_as",
        "repro.bgp.attributes:PathAttributes.with_next_hop",
        "repro.bgp.attributes:AsPath.contains",
        "repro.bgp.attributes:AsPath.all_asns",
    ),
    "bgp.fsm": (
        "repro.bgp.fsm:SessionFsm.handle",
        "repro.bgp.fsm:SessionFsm.handle_message",
        "repro.bgp.fsm:SessionFsm.tick",
        "repro.bgp.fsm:SessionFsm.attach_simulator",
        "repro.bgp.fsm:SessionFsm.notify_and_close",
    ),
    "bgp.policy": ("repro.bgp.policy:Policy.apply",),
    "bgp.decision": ("repro.bgp.decision:DecisionProcess.select",),
    "bgp.rib": (
        "repro.bgp.rib:AdjRibIn.get",
        "repro.bgp.rib:AdjRibIn.update",
        "repro.bgp.rib:AdjRibIn.withdraw",
        "repro.bgp.rib:AdjRibIn.__contains__",
        "repro.bgp.rib:LocRib.get",
        "repro.bgp.rib:LocRib.set_best",
        "repro.bgp.rib:LocRib.remove",
        "repro.bgp.rib:LocRib.covered",
        "repro.bgp.rib:LocRib.prefixes",
        "repro.bgp.rib:AdjRibOut.advertised",
        "repro.bgp.rib:AdjRibOut.stage",
        "repro.bgp.rib:AdjRibOut.stage_withdraw",
        "repro.bgp.rib:AdjRibOut.has_pending",
        "repro.bgp.rib:AdjRibOut.take_pending",
    ),
    "bgp.speaker": (
        "repro.bgp.speaker:BgpSpeaker.add_peer",
        "repro.bgp.speaker:BgpSpeaker.set_send_callback",
        "repro.bgp.speaker:BgpSpeaker.receive_bytes",
        "repro.bgp.speaker:BgpSpeaker._process_update",
        "repro.bgp.speaker:BgpSpeaker._emit",
        "repro.bgp.speaker:BgpSpeaker._send_message",
        "repro.bgp.speaker:BgpSpeaker.flush_updates",
        "repro.bgp.speaker:BgpSpeaker.release_mrai",
        "repro.bgp.speaker:BgpSpeaker.originate",
        "repro.bgp.speaker:BgpSpeaker.withdraw_local",
        "repro.bgp.speaker:BgpSpeaker.take_work",
    ),
    "bgp.mrai": (
        "repro.bgp.mrai:MraiLimiter.offer",
        "repro.bgp.mrai:MraiLimiter.release_due",
        "repro.bgp.mrai:MraiLimiter.next_release_time",
    ),
    "bgp.damping": (
        "repro.bgp.damping:RouteDamper.record_withdrawal",
        "repro.bgp.damping:RouteDamper.record_readvertisement",
        "repro.bgp.damping:RouteDamper.record_attribute_change",
        "repro.bgp.damping:RouteDamper.is_suppressed",
    ),
    "forwarding": (
        "repro.forwarding.fib:Fib.add_route",
        "repro.forwarding.fib:Fib.replace_route",
        "repro.forwarding.fib:Fib.delete_route",
        "repro.forwarding.fib:Fib.__len__",
    ),
    "benchmark.harness": (
        "repro.benchmark.harness:run_scenario",
        "repro.benchmark.harness:stream_packets",
        "repro.benchmark.harness:Watchdog.arm",
        "repro.benchmark.harness:Watchdog.disarm",
        "repro.benchmark.harness:ScenarioResult.to_jsonable",
    ),
    "topo.network": (
        "repro.topo.families:run_topo_cell",
        "repro.topo.families:build_harness",
        "repro.topo.families:pick_origins",
        "repro.topo.families:_collect",
        "repro.topo.network:draw_link_delays",
        "repro.topo.network:TopologyHarness.run",
        "repro.topo.network:TopologyHarness.reset_measurement",
        "repro.topo.network:TopologyHarness.start_watch",
        "repro.topo.network:SpeakerNode.add_peer",
        "repro.topo.network:SpeakerNode.deliver",
        "repro.topo.network:SpeakerNode._arrive",
        "repro.topo.network:SpeakerNode.originate",
        "repro.topo.network:SpeakerNode.withdraw",
        "repro.topo.network:SpeakerNode._release_mrai",
        "repro.topo.wiring:handshake_pair",
        "repro.topo.wiring:establish_session",
        "repro.topo.policy:import_policy",
        "repro.topo.policy:export_policy",
    ),
    "grid": (
        "repro.grid.executor:run_grid",
        "repro.grid.cells:run_cell",
        "repro.grid.cells:enumerate_grid",
        "repro.grid.cells:result_json",
        "repro.grid.cache:source_fingerprint",
        "repro.grid.cache:GridCache.get",
        "repro.grid.cache:GridCache.put",
    ),
}

#: Targets that also keep a span record (start, end, parent) for the
#: Chrome trace: construction, each phase, result collection, each cell.
COARSE = frozenset(
    {
        "repro.workload.tablegen:generate_table",
        "repro.workload.astopo:AsTopology.hierarchy",
        "repro.systems.platforms:build_system",
        "repro.benchmark.harness:run_scenario",
        "repro.benchmark.harness:stream_packets",
        "repro.topo.families:run_topo_cell",
        "repro.topo.families:build_harness",
        "repro.topo.families:_collect",
        "repro.topo.network:TopologyHarness.run",
        "repro.grid.executor:run_grid",
        "repro.grid.cells:run_cell",
        "repro.grid.cache:source_fingerprint",
    }
)


def _bump(tally: dict, name: str, amount=1) -> None:
    tally[name] = tally.get(name, 0) + amount


def _after_decode(tally: dict, args: tuple, result: object) -> None:
    _bump(tally, "decode_calls")
    _bump(tally, "bytes", len(args[0]))


def _after_encode(tally: dict, args: tuple, result: object) -> None:
    _bump(tally, "encode_calls")
    _bump(tally, "bytes", len(result))  # type: ignore[arg-type]


def _after_rib_op(tally: dict, args: tuple, result: object) -> None:
    _bump(tally, "ops")
    # RouteChange.UNCHANGED (identical re-announcement) and .ABSENT
    # (withdrawal of a prefix never held): the RIB did no useful work.
    if getattr(result, "name", "") in ("UNCHANGED", "ABSENT"):
        _bump(tally, "noops")


def _after_fire(tally: dict, args: tuple, result: object) -> None:
    _bump(tally, "events", result)


def _after_schedule(tally: dict, args: tuple, result: object) -> None:
    # The heap is private to Simulator; its length right after a push is
    # the only outside view of how deep timer events sit.
    depth = len(getattr(args[0], "_queue", ()))
    if depth > tally.get("peak_pending", 0):
        tally["peak_pending"] = depth


def _named(name: str) -> "Callable[[dict, tuple, object], None]":
    def after(tally: dict, args: tuple, result: object) -> None:
        _bump(tally, name)

    return after


#: target -> ``after(tally, args, result)``: counts taken at the same
#: boundary as the time, into the layer's tally.
AFTER: "dict[str, Callable[[dict, tuple, object], None]]" = {
    "repro.bgp.messages:decode_message": _after_decode,
    "repro.bgp.messages:UpdateMessage.encode": _after_encode,
    "repro.bgp.messages:OpenMessage.encode": _after_encode,
    "repro.bgp.messages:KeepaliveMessage.encode": _after_encode,
    "repro.bgp.messages:NotificationMessage.encode": _after_encode,
    "repro.bgp.rib:AdjRibIn.update": _after_rib_op,
    "repro.bgp.rib:AdjRibIn.withdraw": _after_rib_op,
    "repro.bgp.rib:LocRib.set_best": _after_rib_op,
    "repro.bgp.rib:LocRib.remove": _after_rib_op,
    "repro.bgp.rib:AdjRibOut.stage": _after_rib_op,
    "repro.bgp.rib:AdjRibOut.stage_withdraw": _after_rib_op,
    "repro.sim.engine:Simulator.fire_due": _after_fire,
    "repro.sim.engine:Simulator.schedule_at": _after_schedule,
    "repro.bgp.speaker:BgpSpeaker._process_update": _named("updates_in"),
    "repro.bgp.speaker:BgpSpeaker._emit": _named("updates_out"),
    "repro.forwarding.fib:Fib.add_route": _named("fib_ops"),
    "repro.forwarding.fib:Fib.replace_route": _named("fib_ops"),
    "repro.forwarding.fib:Fib.delete_route": _named("fib_ops"),
}


class Tracer:
    """The nesting timer plus everything :meth:`install` patched.

    One tracer is one measurement: per-target ``[calls, self_s,
    inclusive_s]`` cells in :attr:`stats`, per-layer count tallies in
    :attr:`tallies`, coarse span records in :attr:`spans`.
    """

    def __init__(self, clock: "Callable[[], float]" = perf_counter):
        self.clock = clock
        self.stats: "dict[str, list]" = {}
        self.tallies: "dict[str, dict]" = {}
        #: (target, start, end, parent index or -1), in completion order
        #: with indices assigned at span start.
        self.spans: "list[list]" = []
        self.missing: "list[str]" = []
        self._stack: "list[float]" = []
        self._open_spans: "list[int]" = []
        self._patches: "list[tuple[object, str, object]]" = []

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        target: str,
        coarse: bool = False,
        after: "Callable[[dict, tuple, object], None] | None" = None,
    ) -> Callable:
        """A timing wrapper around *fn* sharing this tracer's stack."""
        if inspect.isgeneratorfunction(fn):
            # Calling one only builds the generator; the work happens in
            # the consumer's loop, where no wrapper can see it.
            raise TypeError(f"cannot probe generator function {target}")
        clock = self.clock
        stack = self._stack
        cell = self.stats.setdefault(target, [0, 0.0, 0.0])
        tally = self.tallies.setdefault(layer, {})
        spans = self.spans
        open_spans = self._open_spans

        if coarse:

            def probe(*args, **kwargs):
                record = [target, 0.0, 0.0, open_spans[-1] if open_spans else -1]
                open_spans.append(len(spans))
                spans.append(record)
                stack.append(0.0)
                start = record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = record[2] = clock()
                    open_spans.pop()
                    duration = end - start
                    cell[0] += 1
                    cell[1] += duration - stack.pop()
                    cell[2] += duration
                    if stack:
                        stack[-1] += duration
                if after is not None:
                    after(tally, args, result)
                return result

        elif after is not None:

            def probe(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    cell[0] += 1
                    cell[1] += duration - stack.pop()
                    cell[2] += duration
                    if stack:
                        stack[-1] += duration
                after(tally, args, result)
                return result

        else:

            def probe(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    cell[0] += 1
                    cell[1] += duration - stack.pop()
                    cell[2] += duration
                    if stack:
                        stack[-1] += duration

        probe.__wrapped__ = fn  # type: ignore[attr-defined]
        probe.__name__ = getattr(fn, "__name__", "probe")
        probe.__qualname__ = getattr(fn, "__qualname__", probe.__name__)
        probe.__doc__ = fn.__doc__
        return probe

    # -- install / uninstall -----------------------------------------------

    def install(self, probes: "dict[str, tuple[str, ...]] | None" = None) -> None:
        """Patch every resolvable target; unresolvable ones are listed in
        :attr:`missing` and leave the run untouched."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in (PROBES if probes is None else probes).items():
            self.tallies.setdefault(layer, {})
            for target in targets:
                try:
                    self._install_one(layer, target)
                except (ImportError, AttributeError):
                    self.missing.append(target)

    def _install_one(self, layer: str, target: str) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        coarse = target in COARSE
        after = AFTER.get(target)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = inspect.getattr_static(owner, attr)
            if attr not in vars(owner):
                raise AttributeError(f"{target} is inherited, not defined there")
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(
                    self.wrap(raw.__func__, layer, target, coarse, after)
                )
            else:
                patched = self.wrap(raw, layer, target, coarse, after)
            self._patch(owner, attr, raw, patched)
            return
        original = getattr(module, path)
        patched = self.wrap(original, layer, target, coarse, after)
        # `from x import f` copies the reference: patch every repro
        # module that holds this very object, under whatever name.
        for name, holder in sorted(sys.modules.items()):
            if holder is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, alias, original, patched)

    def _patch(self, owner: object, attr: str, original: object, patched: object) -> None:
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back — the very objects, by identity."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- reading a measurement ---------------------------------------------

    def reset(self) -> None:
        """Zero counters and spans between repetitions (wrappers stay)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for cell in self.stats.values():
            cell[0], cell[1], cell[2] = 0, 0.0, 0.0
        for tally in self.tallies.values():
            tally.clear()
        del self.spans[:]

    def layer_table(
        self, probes: "dict[str, tuple[str, ...]] | None" = None
    ) -> "dict[str, dict | None]":
        """``{layer: {"calls", "self_s"}}``; a layer with a missing
        target reads ``None`` — a partial sum would pass for the whole."""
        table: "dict[str, dict | None]" = {}
        for layer, targets in (PROBES if probes is None else probes).items():
            if any(target in self.missing for target in targets):
                table[layer] = None
                continue
            cells = [self.stats[target] for target in targets]
            table[layer] = {
                "calls": sum(cell[0] for cell in cells),
                "self_s": sum(cell[1] for cell in cells),
            }
        return table

    def inclusive_s(self, target: str) -> float:
        """Total duration of *target*'s spans (children included)."""
        cell = self.stats.get(target)
        return cell[2] if cell is not None else 0.0

    def chrome_trace(self, extra_spans: "list[tuple[str, float, float]]" = ()) -> dict:
        """The coarse spans as Chrome-trace complete events (µs)."""
        records = [[name, start, end, -1] for name, start, end in extra_spans]
        offset = len(records)
        for target, start, end, parent in self.spans:
            records.append(
                [target, start, end, parent + offset if parent >= 0 else -1]
            )
        if not records:
            return {"traceEvents": []}
        origin = min(record[1] for record in records)
        return {
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": index, "parent": parent},
                }
                for index, (name, start, end, parent) in enumerate(records)
            ]
        }


def write_chrome_trace(path, trace: dict) -> None:
    with open(path, "w") as handle:
        json.dump(trace, handle)
