"""Update-to-FIB latency under load — a companion metric to the paper's
transactions/s.

The paper measures throughput; operators also care how *stale* the
forwarding state is while the control plane churns. This bench measures
per-update processing latency (packet arrival to FIB update completion)
across the platforms and under cross-traffic, and checks the ordering
implied by Table III.
"""

import pytest

from repro.benchmark.harness import (
    SPEAKER1,
    SPEAKER1_ADDR,
    SPEAKER1_ASN,
    stream_packets,
)
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.systems import build_system
from repro.telemetry import Telemetry
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder


def measure_latencies(platform, cross_mbps=0.0, table_size=400, window=8):
    router = build_system(platform)
    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
    router.set_cross_traffic(cross_mbps)
    builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
    table = generate_table(table_size, seed=13)
    router.reset_counters()
    # Each packet span runs from the packet's arrival to its completion.
    telemetry = Telemetry().attach(router)
    stream_packets(router, SPEAKER1, builder.announcements(table, 1), window)
    return sorted(span.duration for span in telemetry.tracer.spans("packet"))


def percentile(values, fraction):
    return values[min(len(values) - 1, int(fraction * len(values)))]


def test_latency_distribution_per_platform(benchmark):
    def run_all():
        return {
            platform: measure_latencies(platform)
            for platform in ("pentium3", "xeon", "ixp2400")
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for platform, latencies in results.items():
        p50 = percentile(latencies, 0.50) * 1e3
        p99 = percentile(latencies, 0.99) * 1e3
        print(f"{platform:9s} median {p50:8.1f} ms   p99 {p99:8.1f} ms")
    # Latency ordering mirrors the throughput ordering of Table III.
    assert percentile(results["xeon"], 0.5) < percentile(results["pentium3"], 0.5)
    assert percentile(results["pentium3"], 0.5) < percentile(results["ixp2400"], 0.5)


def test_cross_traffic_inflates_latency(benchmark):
    def run_both():
        return (
            measure_latencies("pentium3", 0.0),
            measure_latencies("pentium3", 300.0),
        )

    quiet, loaded = benchmark.pedantic(run_both, rounds=1, iterations=1)
    quiet_p50 = percentile(quiet, 0.5)
    loaded_p50 = percentile(loaded, 0.5)
    print(f"\npentium3 median latency: quiet {quiet_p50 * 1e3:.1f} ms, "
          f"300 Mb/s cross-traffic {loaded_p50 * 1e3:.1f} ms")
    assert loaded_p50 > 1.3 * quiet_p50


def test_queueing_dominates_at_larger_window(benchmark):
    """A deeper in-flight window (bigger socket buffer) trades latency
    for throughput: per-update latency grows with the window."""
    def run_windows():
        return {
            window: percentile(
                measure_latencies("pentium3", window=window), 0.5
            )
            for window in (1, 8, 32)
        }

    medians = benchmark.pedantic(run_windows, rounds=1, iterations=1)
    print("\nmedian latency by window:",
          {w: f"{v * 1e3:.1f} ms" for w, v in medians.items()})
    assert medians[1] < medians[8] < medians[32]
