#!/usr/bin/env python3
"""Worm event: a global routing instability storm.

The paper (§II, citing Cowie et al.) notes that network-wide events
such as worm outbreaks raise the BGP message rate by 2-3 orders of
magnitude above the typical ~100 messages/second, and concludes (§V.C)
that "no system can handle the workload generated by routing updates
due to a worm spreading in the Internet".

This example subjects each platform to an announce/withdraw flap storm
over part of the table and reports the sustained update rate each
platform achieves against the storm's offered rate — reproducing the
paper's conclusion quantitatively.

Run:  python examples/worm_event.py
"""

from repro.benchmark.harness import (
    SPEAKER1,
    SPEAKER1_ADDR,
    SPEAKER1_ASN,
    stream_packets,
)
from repro.benchmark.stability import run_storm
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.systems import build_system
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

#: Typical steady-state BGP load (paper §II) and the worm multiplier.
TYPICAL_MESSAGES_PER_SECOND = 100
WORM_MULTIPLIER = 100  # 2 orders of magnitude

PLATFORMS = ("pentium3", "xeon", "ixp2400", "cisco")


def storm_rate(platform: str, flapping_prefixes: int, rounds: int) -> float:
    """Sustained prefix-updates/second during an announce/withdraw storm."""
    router = build_system(platform)
    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)

    builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
    table = generate_table(flapping_prefixes, seed=99)
    # Small packets: a storm arrives as individual updates, not batches.
    packets = builder.flap_storm(table, rounds=rounds, prefixes_per_update=1)

    router.reset_counters()
    start = router.now
    stream_packets(router, SPEAKER1, packets, window=16)
    elapsed = router.last_completion - start
    return router.transactions_completed / elapsed if elapsed > 0 else 0.0


def main() -> None:
    offered = TYPICAL_MESSAGES_PER_SECOND * WORM_MULTIPLIER
    print(
        f"Worm-event storm: {offered} updates/s offered "
        f"({WORM_MULTIPLIER}x the typical ~{TYPICAL_MESSAGES_PER_SECOND}/s)\n"
    )
    print(f"{'platform':12s} {'sustained':>12s} {'vs offered':>12s}  verdict")
    print("-" * 56)
    for platform in PLATFORMS:
        rate = storm_rate(platform, flapping_prefixes=400, rounds=4)
        verdict = "keeps up" if rate >= offered else "FALLS BEHIND"
        print(f"{platform:12s} {rate:>10.1f}/s {rate / offered:>11.2f}x  {verdict}")
    print()
    print(
        "Paper §V.C: even the dual-core system cannot absorb a worm-scale\n"
        "storm of individual (small-packet) updates — queues grow, and in\n"
        "a live network the router would miss keep-alives and flap.\n"
    )

    # Second analysis: does the session actually survive? Offer a
    # sustained storm with NO backpressure (the aggregate of many peers)
    # and probe whether keepalives stay inside the hold time.
    print("Keepalive survival under a sustained storm (hold time 15 s):")
    print(f"{'platform':12s} {'offered':>10s} {'worst gap':>11s}  verdict")
    print("-" * 52)
    for platform, rate in (("pentium3", 1500.0), ("xeon", 1500.0)):
        report = run_storm(
            platform, rate, duration=30.0, hold_time=15.0, table_size=500, seed=99
        )
        verdict = "session holds" if report.session_survives else "SESSION FLAPS"
        print(
            f"{platform:12s} {rate:>8.0f}/s {report.max_gap:>9.1f} s  {verdict}"
        )


if __name__ == "__main__":
    main()
