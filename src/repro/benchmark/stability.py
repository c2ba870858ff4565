"""Session-stability analysis: does an update storm starve keepalives?

The paper's §II motivation: "If a router cannot handle these peak
loads, it may not be able to send keep-alive messages to its neighbor
and thus trigger additional events." This module quantifies that
failure mode on the simulated routers.

A :class:`KeepaliveProbe` schedules a keepalive transmission on the
router's BGP process every ``interval`` virtual seconds. The keepalive
is a (tiny) job on the ``xorp_bgp`` task, so it queues FIFO behind
whatever update processing is already backlogged — exactly the
starvation mechanism. The probe records when each keepalive actually
completes; if the gap between consecutive completions ever exceeds the
peer's hold time, the peer would have declared the session dead.
:func:`run_storm` drives one such storm end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark.harness import SPEAKER1, SPEAKER1_ADDR, SPEAKER1_ASN
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.systems.platforms import build_system
from repro.systems.router import CiscoRouter, RouterSystem, XorpRouter
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

#: CPU cost of building and sending one KEEPALIVE (reference seconds) —
#: the 19-byte message is trivial; the problem is getting scheduled.
KEEPALIVE_COST = 0.05e-3


def offer_at_rate(
    router: RouterSystem,
    peer_id: str,
    packets: "list[bytes]",
    packets_per_second: float,
) -> float:
    """Schedule *packets* at a fixed offered rate with **no**
    backpressure — the worm-event situation where updates pour in from
    the whole Internet and one session's TCP window cannot throttle the
    aggregate. If the offered rate exceeds the platform's processing
    rate, queues grow without bound, which is what starves keepalives.

    Returns the time at which the last packet is offered.
    """
    if packets_per_second <= 0:
        raise ValueError("rate must be positive")
    spacing = 1.0 / packets_per_second
    for index, packet in enumerate(packets):
        router.deliver(peer_id, packet, delay=index * spacing)
    return len(packets) * spacing


@dataclass(slots=True)
class StabilityReport:
    """Outcome of a keepalive-starvation probe."""

    interval: float
    hold_time: float
    completions: list[float] = field(default_factory=list)

    @property
    def max_gap(self) -> float:
        """Largest gap between consecutive keepalive completions
        (including the gap from time zero to the first one)."""
        if not self.completions:
            return float("inf")
        previous = 0.0
        worst = 0.0
        for completion in self.completions:
            worst = max(worst, completion - previous)
            previous = completion
        return worst

    @property
    def session_survives(self) -> bool:
        """Would the peer's hold timer have stayed armed throughout?"""
        return self.max_gap < self.hold_time

    @property
    def worst_lateness(self) -> float:
        """How far the worst keepalive slipped past its ideal send time."""
        worst = 0.0
        for index, completion in enumerate(self.completions):
            due = (index + 1) * self.interval
            worst = max(worst, completion - due)
        return worst


class KeepaliveProbe:
    """Arms periodic keepalive work on a router under test."""

    def __init__(
        self,
        router: RouterSystem,
        interval: float = 30.0,
        hold_time: float = 90.0,
        horizon: float = 3600.0,
    ):
        """Pre-schedules keepalive work every *interval* seconds out to
        *horizon* — a bounded schedule, so the simulation still drains
        to idle once the storm and the probe window are done."""
        if interval <= 0 or hold_time <= 0:
            raise ValueError("interval and hold_time must be positive")
        if horizon < interval:
            raise ValueError("horizon must cover at least one interval")
        self.router = router
        self.report = StabilityReport(interval=interval, hold_time=hold_time)
        if isinstance(router, XorpRouter):
            self._task = router.bgp
        elif isinstance(router, CiscoRouter):
            self._task = router.ios
        else:  # pragma: no cover - future router kinds
            raise TypeError(f"unsupported router {type(router).__name__}")
        self._stopped = False
        sim = router.world.sim
        count = int(horizon / interval)
        for index in range(1, count + 1):
            sim.schedule_at(sim.now + index * interval, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._task.submit(KEEPALIVE_COST, self._completed)

    def _completed(self) -> None:
        if not self._stopped:
            self.report.completions.append(self.router.world.sim.now)

    def stop(self) -> StabilityReport:
        """Stop recording and return the report (pending probe events
        become no-ops)."""
        self._stopped = True
        return self.report


def run_storm(
    platform: str,
    rate: float,
    duration: float,
    hold_time: float,
    table_size: int,
    seed: int,
) -> StabilityReport:
    """Offer *rate* small-packet flaps per second over a *table_size*
    table for *duration* seconds to a fresh *platform* router, probing a
    keepalive every ``hold_time / 3`` (the RFC 4271 suggested ratio)."""
    router = build_system(platform)
    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
    probe = KeepaliveProbe(
        router, interval=hold_time / 3.0, hold_time=hold_time, horizon=duration
    )
    builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
    table = generate_table(table_size, seed=seed)
    total = int(rate * duration)
    rounds = max(2, (total + len(table) - 1) // len(table))
    packets = builder.flap_storm(table, rounds=rounds, prefixes_per_update=1)[:total]
    offer_at_rate(router, SPEAKER1, packets, rate)
    router.run_until_idle()
    return probe.stop()
