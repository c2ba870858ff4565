"""Simulated router systems under test.

Both router models wrap a functionally real :class:`~repro.bgp.speaker.
BgpSpeaker` (actual RFC 4271 bytes in, actual RIBs and FIB updated) and
charge the *virtual CPU time* each packet costs on the modeled platform:

* :class:`XorpRouter` — the three XORP platforms. Each received packet
  is processed through a chain of stage jobs matching XORP's process
  structure: interrupt (kernel rx) → xorp_bgp (parse + decision) →
  xorp_policy → xorp_rib → xorp_fea → kernel FIB syscall → export
  flush. On a uni-core machine the stages serialise (throughput is the
  sum of the stage costs); on the dual-core Xeon they pipeline across
  hardware threads (throughput approaches the bottleneck stage), which
  is precisely how the paper's order-of-magnitude gap between the two
  arises from a 3.75× clock difference.
* :class:`CiscoRouter` — the commercial black box: a paced input gate
  (one packet per IOS scheduler quantum) feeding a single CPU.

Cross-traffic is a continuous interrupt + softnet load with priority
over user processing ("cross-traffic is given higher priority by the
operating system", §V.B); on the IXP2400 it lands on a separate
packet-processor machine and therefore does not touch the XScale.
"""

from __future__ import annotations

from typing import Callable

from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig, WorkLog
from repro.forwarding.fib import Fib
from repro.net.addr import IPv4Address
from repro.sim.cpu import Priority, Task, World
from repro.sim.monitor import CpuMonitor, RateMonitor
from repro.systems.costs import charges_for, export_charges, work_delta
from repro.systems.platforms import PlatformSpec

_TINY = 1e-12

ROUTER_ASN = 65000
ROUTER_ID = IPv4Address.parse("10.255.0.1")
ROUTER_ADDRESS = IPv4Address.parse("10.255.0.1")


class RouterSystem:
    """Common machinery: the functional speaker, outboxes, counters."""

    def __init__(
        self,
        spec: PlatformSpec,
        world: World | None = None,
        asn: int = ROUTER_ASN,
        router_id: IPv4Address = ROUTER_ID,
        local_address: IPv4Address = ROUTER_ADDRESS,
        split_horizon_withdraw: bool = False,
    ):
        self.spec = spec
        self.world = world if world is not None else World()
        self.fib = Fib()
        self.speaker = BgpSpeaker(
            SpeakerConfig(
                asn=asn,
                bgp_identifier=router_id,
                local_address=local_address,
                hold_time=0.0,  # timers off: the benchmark drives all I/O
                split_horizon_withdraw=split_horizon_withdraw,
            ),
            fib=self.fib,
        )
        self.outboxes: dict[str, list[bytes]] = {}
        #: Prefixes per UPDATE when packing exports (set per scenario).
        self.export_packing = 1
        self.cross_traffic_mbps = 0.0
        self.transactions_completed = 0
        self.packets_completed = 0
        self.last_completion = 0.0
        self.on_packet_done: Callable[[], None] | None = None
        #: Optional :class:`repro.telemetry.Telemetry` instrumenting this
        #: run (set by ``Telemetry.attach``). Observe-only.
        self.telemetry = None
        #: When True, (arrival_time, completion_time) is recorded per
        #: packet in :attr:`latency_samples` — the update-to-FIB latency
        #: metric (a natural companion to transactions/s).
        self.collect_latency = False
        self.latency_samples: list[tuple[float, float]] = []

    # -- peers (functional, zero virtual cost: test-harness plumbing) -----

    def add_peer(self, config: PeerConfig) -> None:
        peer = self.speaker.add_peer(config)
        # Session timers fire on the virtual clock (a no-op while the
        # benchmark default hold_time=0 keeps them disarmed).
        peer.fsm.attach_simulator(self.world.sim)
        outbox: list[bytes] = []
        self.outboxes[config.peer_id] = outbox
        self.speaker.set_send_callback(config.peer_id, outbox.append)

    def handshake(self, peer_id: str, remote_asn: int, remote_id: IPv4Address) -> None:
        """Establish the session instantaneously (setup, not measured).

        Delegates to the reusable wiring helper (lazy import: ``repro.
        topo`` builds on this module, so the dependency must stay
        one-way at import time).
        """
        from repro.topo.wiring import establish_session

        establish_session(
            self.speaker, peer_id, remote_asn, remote_id, now=self.world.sim.now
        )

    def reset_counters(self) -> None:
        """Zero the measurement state at a phase boundary."""
        self.speaker.take_work()
        self.transactions_completed = 0
        self.packets_completed = 0
        self.last_completion = self.world.sim.now
        self.latency_samples = []

    # -- interface the subclasses implement ---------------------------------

    def deliver(self, peer_id: str, data: bytes, delay: float = 0.0) -> None:
        raise NotImplementedError

    def set_cross_traffic(self, mbps: float) -> None:
        raise NotImplementedError

    def schedule_initial_advertisement(self, peer_id: str) -> None:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.world.sim.now

    def run_until_idle(self, extra: float = 0.0) -> float:
        """Run the world dry; optionally keep simulating *extra* seconds
        (so monitors record trailing cross-traffic-only activity)."""
        end = self.world.run()
        if extra > 0:
            self.world.run(until=end + extra)
        return self.world.sim.now

    def _functional_receive(self, peer_id: str, data: bytes) -> WorkLog:
        before = self.speaker.work.snapshot()
        self.speaker.receive_bytes(peer_id, data, now=self.world.sim.now)
        return work_delta(self.speaker.work, before)

    def _functional_flush(self) -> tuple[int, int]:
        """Flush every staged export; returns (prefixes, updates)."""
        before = self.speaker.work.snapshot()
        self.speaker.flush_pending(self.export_packing)
        delta = work_delta(self.speaker.work, before)
        return delta.prefixes_sent, delta.updates_sent

    def _packet_done(
        self,
        transactions: int,
        arrived_at: float | None = None,
        span: object | None = None,
    ) -> None:
        self.transactions_completed += transactions
        self.packets_completed += 1
        self.last_completion = self.world.sim.now
        if self.collect_latency and arrived_at is not None:
            self.latency_samples.append((arrived_at, self.world.sim.now))
        if span is not None and self.telemetry is not None:
            self.telemetry.packet_end(span, transactions)
        if self.on_packet_done is not None:
            self.on_packet_done()

    def latencies(self) -> list[float]:
        """Per-packet processing latencies (completion - arrival)."""
        return [done - arrived for arrived, done in self.latency_samples]


class XorpRouter(RouterSystem):
    """The XORP software model on a shared- or offload-forwarding machine."""

    def __init__(self, spec: PlatformSpec, world: World | None = None, **speaker_kwargs):
        super().__init__(spec, world, **speaker_kwargs)
        self.costs = spec.costs
        self.machine = self.world.new_machine(
            spec.name,
            cores=spec.cores,
            threads_per_core=spec.threads_per_core,
            smt_efficiency=spec.smt_efficiency,
            speed=spec.speed,
        )
        self.cpu_monitor = CpuMonitor(self.machine)

        self.irq = self.machine.new_task("interrupts", Priority.INTERRUPT)
        self.irq_xt = self.machine.new_task("interrupts-xt", Priority.INTERRUPT)
        self.kernel = self.machine.new_task("kernel-fib", Priority.KERNEL)
        self.bgp = self.machine.new_task("xorp_bgp")
        self.policy = self.machine.new_task("xorp_policy")
        self.rib = self.machine.new_task("xorp_rib")
        self.fea = self.machine.new_task("xorp_fea")
        self.rtrmgr = self.machine.new_task("xorp_rtrmgr")
        self.rtrmgr.set_background_demand(spec.rtrmgr_background * spec.speed)

        forwarding = spec.forwarding
        if forwarding.kind == "offload":
            self.pp_machine = self.world.new_machine(
                f"{spec.name}-packet-processors", cores=spec.offload_processors
            )
            self.softnet = self.pp_machine.new_task("packet-processors", Priority.KERNEL)
            scale = 1.0 / spec.offload_cost_per_mbit
            self.forwarding_monitor = RateMonitor(self.pp_machine, self.softnet, scale=scale)
        else:
            # The device/driver ring buffers roughly 25 ms of line-rate
            # traffic; anything stalled longer than that is dropped.
            buffer_cpu_seconds = (
                forwarding.softnet_cost_per_mbit * forwarding.max_mbps * 0.025
            )
            self.softnet = self.machine.new_task(
                "softnet-xt", Priority.KERNEL, max_backlog=buffer_cpu_seconds
            )
            # FIB write lock: forwarding lookups stall while the kernel
            # installs routes — the cause of the Figure 6(c) packet loss.
            self.softnet.blocked_by = self.kernel
            scale = (
                1.0 / forwarding.softnet_cost_per_mbit
                if forwarding.softnet_cost_per_mbit > 0
                else 1.0
            )
            self.forwarding_monitor = RateMonitor(self.machine, self.softnet, scale=scale)

    # -- cross-traffic ----------------------------------------------------------

    def set_cross_traffic(self, mbps: float) -> None:
        forwarding = self.spec.forwarding
        effective = min(mbps, forwarding.max_mbps)
        self.cross_traffic_mbps = effective
        if forwarding.kind == "offload":
            self.softnet.set_continuous_demand(effective * self.spec.offload_cost_per_mbit)
        else:
            self.irq_xt.set_continuous_demand(effective * forwarding.irq_cost_per_mbit)
            self.softnet.set_continuous_demand(effective * forwarding.softnet_cost_per_mbit)

    # -- packet path ---------------------------------------------------------------

    def deliver(self, peer_id: str, data: bytes, delay: float = 0.0) -> None:
        self.world.sim.schedule(delay, lambda: self._arrive(peer_id, data))

    def _arrive(self, peer_id: str, data: bytes) -> None:
        arrived_at = self.world.sim.now
        span = None
        if self.telemetry is not None:
            span = self.telemetry.packet_begin(peer_id)
        delta = self._functional_receive(peer_id, data)
        if span is not None:
            self.telemetry.packet_parsed(span)
        charges = charges_for(self.costs, delta)

        stages: list[tuple[Task, float]] = [
            (self.irq, charges.irq),
            (self.bgp, charges.bgp),
            (self.policy, charges.policy),
            (self.rib, charges.rib),
            (self.fea, charges.fea),
            (self.kernel, charges.kernel_fib),
        ]

        def flush_exports() -> None:
            # The functional flush happens at the chain tail, so any
            # downstream router (see repro.benchmark.chain) receives the
            # re-advertisement only after this router has finished its
            # own processing in virtual time.
            export_prefixes, export_updates = self._functional_flush()
            export_bgp, export_tx = export_charges(
                self.costs, export_prefixes, export_updates
            )
            export_stages = [
                (self.bgp, export_bgp),
                (self.kernel, export_tx),
            ]
            self._submit_chain(
                [(task, cost) for task, cost in export_stages if cost > _TINY],
                lambda: self._packet_done(delta.transactions, arrived_at, span),
            )

        self._submit_chain(
            [(task, cost) for task, cost in stages if cost > _TINY],
            flush_exports,
        )

    def _submit_chain(
        self, stages: list[tuple[Task, float]], done: Callable[[], None]
    ) -> None:
        if not stages:
            # Still count completion in virtual time order.
            self.world.sim.schedule(0.0, done)
            return

        def make_callback(index: int) -> Callable[[], None]:
            if index >= len(stages):
                return done

            def advance() -> None:
                task, cost = stages[index]
                task.submit(cost, make_callback(index + 1))

            return advance

        make_callback(0)()

    # -- phase 2: initial table transfer ---------------------------------------------

    def schedule_initial_advertisement(self, peer_id: str) -> None:
        """Charge and emit the full-table transfer staged at session-up."""
        export_prefixes, export_updates = self._functional_flush()
        export_bgp, export_tx = export_charges(self.costs, export_prefixes, export_updates)
        stages = [
            (self.bgp, export_bgp),
            (self.kernel, export_tx),
        ]
        self._submit_chain(
            [(task, cost) for task, cost in stages if cost > _TINY],
            lambda: self._packet_done(0),
        )


class CiscoRouter(RouterSystem):
    """The commercial black box: paced input + a single IOS CPU."""

    def __init__(self, spec: PlatformSpec, world: World | None = None, **speaker_kwargs):
        super().__init__(spec, world, **speaker_kwargs)
        self.costs = spec.cisco_costs
        self.machine = self.world.new_machine(spec.name, cores=1, speed=spec.speed)
        self.cpu_monitor = CpuMonitor(self.machine)
        self.ios = self.machine.new_task("ios-bgp")
        self.irq_xt = self.machine.new_task("interrupts-xt", Priority.INTERRUPT)
        scale = (
            1.0 / spec.forwarding.irq_cost_per_mbit
            if spec.forwarding.irq_cost_per_mbit > 0
            else 1.0
        )
        self.forwarding_monitor = RateMonitor(self.machine, self.irq_xt, scale=scale)
        self._queue: list[tuple[str, bytes, float]] = []
        self._head = 0
        self._gate_busy = False
        self._last_release = -spec.cisco_costs.pacing_interval

    def set_cross_traffic(self, mbps: float) -> None:
        effective = min(mbps, self.spec.forwarding.max_mbps)
        self.cross_traffic_mbps = effective
        self.irq_xt.set_continuous_demand(
            effective * self.spec.forwarding.irq_cost_per_mbit
        )

    def deliver(self, peer_id: str, data: bytes, delay: float = 0.0) -> None:
        self.world.sim.schedule(delay, lambda: self._enqueue(peer_id, data))

    def _enqueue(self, peer_id: str, data: bytes) -> None:
        self._queue.append((peer_id, data, self.world.sim.now))
        if not self._gate_busy:
            self._schedule_release()

    def _schedule_release(self) -> None:
        self._gate_busy = True
        release_at = max(
            self.world.sim.now, self._last_release + self.costs.pacing_interval
        )
        self.world.sim.schedule_at(release_at, self._release)

    def _release(self) -> None:
        self._last_release = self.world.sim.now
        peer_id, data, arrived_at = self._queue[self._head]
        self._head += 1
        if self._head > 1024 and self._head * 2 > len(self._queue):
            del self._queue[: self._head]
            self._head = 0
        span = None
        if self.telemetry is not None:
            # The span covers the packet's whole residence, queueing
            # included, so it starts at the recorded arrival time.
            span = self.telemetry.packet_begin(peer_id, start=arrived_at)
        delta = self._functional_receive(peer_id, data)
        if span is not None:
            self.telemetry.packet_parsed(span)
        work = (
            self.costs.prefix_announce * delta.prefixes_announced
            + self.costs.prefix_withdraw * delta.prefixes_withdrawn
            + self.costs.fib_add * delta.fib_adds
            + self.costs.fib_replace * delta.fib_replaces
            + self.costs.fib_remove * delta.fib_deletes
        )

        def flush_then_finish() -> None:
            # Flush at the work's completion so downstream routers (see
            # repro.benchmark.chain) receive re-advertisements causally.
            export_prefixes, _updates = self._functional_flush()
            export_work = self.costs.export_prefix * export_prefixes
            if export_work > _TINY:
                self.ios.submit(
                    export_work,
                    lambda: self._finish(delta.transactions, arrived_at, span),
                )
            else:
                self._finish(delta.transactions, arrived_at, span)

        self.ios.submit(work, flush_then_finish)

    def _finish(
        self, transactions: int, arrived_at: float, span: object | None = None
    ) -> None:
        self._packet_done(transactions, arrived_at, span)
        if self._head < len(self._queue):
            self._schedule_release()
        else:
            self._gate_busy = False

    def schedule_initial_advertisement(self, peer_id: str) -> None:
        export_prefixes, _updates = self._functional_flush()
        work = self.costs.export_prefix * export_prefixes
        if work > _TINY:
            self.ios.submit(work, lambda: self._packet_done(0))
