"""Measure the paper's §II claim: BGP's policy-driven, per-prefix
processing "increases the complexity significantly over OSPF and RIP".

Each protocol performs its cold-start convergence and we report the
real wall-clock cost *per routing-table entry produced*:

* BGP — a speaker ingests a table of wire-format UPDATEs (decode,
  policy, decision, Loc-RIB, FIB);
* OSPF — a domain floods LSAs and runs SPF everywhere (entries =
  destinations per router × routers);
* RIP — a domain exchanges distance vectors to convergence.
"""

import pytest

from repro.benchmark.harness import SPEAKER1, SPEAKER1_ADDR, SPEAKER1_ASN
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.bgp.messages import KeepaliveMessage, OpenMessage
from repro.forwarding.fib import Fib
from repro.igp.ospf import OspfNetwork
from repro.igp.rip import RipNetwork
from repro.igp.topology import Topology
from repro.net.addr import IPv4Address
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

BGP_PREFIXES = 1000
IGP_ROUTERS = 24


def bgp_cold_start() -> int:
    """Ingest a full table; returns routing-table entries produced."""
    fib = Fib()
    speaker = BgpSpeaker(
        SpeakerConfig(
            asn=65000,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.255.0.1"),
            hold_time=0.0,
        ),
        fib=fib,
    )
    speaker.add_peer(PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL))
    speaker.set_send_callback(SPEAKER1, lambda data: None)
    speaker.start_peer(SPEAKER1)
    speaker.transport_connected(SPEAKER1)
    speaker.receive_bytes(SPEAKER1, OpenMessage(SPEAKER1_ASN, 0, SPEAKER1_ADDR).encode())
    speaker.receive_bytes(SPEAKER1, KeepaliveMessage().encode())
    table = generate_table(BGP_PREFIXES, seed=42)
    for packet in UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR).announcements(table, 1):
        speaker.receive_bytes(SPEAKER1, packet)
    assert len(speaker.loc_rib) == BGP_PREFIXES
    return BGP_PREFIXES


def ospf_cold_start() -> int:
    network = OspfNetwork(Topology.ring(IGP_ROUTERS))
    network.announce_all()
    return sum(len(r.routing_table) for r in network.routers.values())


def rip_cold_start() -> int:
    network = RipNetwork(Topology.ring(IGP_ROUTERS))
    network.converge()
    return sum(
        len([e for e in r.table.values() if e.metric < 16]) - 1
        for r in network.routers.values()
    )


@pytest.mark.parametrize(
    "name,runner",
    [("bgp", bgp_cold_start), ("ospf", ospf_cold_start), ("rip", rip_cold_start)],
)
def test_cold_start_cost(benchmark, name, runner):
    entries = benchmark(runner)
    assert entries > 0
    if benchmark.stats is None:  # --benchmark-disable: one plain call, no timing
        return
    per_entry_us = benchmark.stats["mean"] * 1e6 / entries
    print(f"\n{name}: {entries} routing-table entries, "
          f"{per_entry_us:.1f} us per entry")


def test_bgp_costs_more_per_entry_than_igps(benchmark):
    """The §II complexity claim, as a direct per-entry comparison."""
    import time

    def cost_per_entry(runner):
        start = time.perf_counter()
        entries = runner()
        return (time.perf_counter() - start) / entries

    bgp = benchmark.pedantic(cost_per_entry, args=(bgp_cold_start,), rounds=1, iterations=1)
    ospf = cost_per_entry(ospf_cold_start)
    rip = cost_per_entry(rip_cold_start)
    print(f"\nper-entry cost: bgp {bgp * 1e6:.1f}us, ospf {ospf * 1e6:.1f}us, "
          f"rip {rip * 1e6:.1f}us")
    assert bgp > ospf
    assert bgp > rip
