"""The ``bgpbench perf`` microbenchmark harness.

This is the one corner of ``src/repro`` that is *deliberately*
nondeterministic: it reads the real wall clock to measure how fast the
hot paths run on this machine. Results never feed the simulation or
the golden gate — they go to ``BENCH_*.json`` and the perf budget gate
(:mod:`repro.perf.gate`), which compares against machine-calibrated
budgets with generous tolerance.

Four workloads, each an absolute throughput:

* ``update_decode`` — zero-copy framing + memoized attribute decode;
* ``rib_churn`` — trie-backed RIBs fed interned flyweights (what the
  decode layer produces);
* ``decision_process`` and ``end_to_end`` — the decision process and
  the full speaker pipeline.

The pre-optimization decoder and the dict RIBs these were once timed
against are differential oracles under ``tests/oracles/`` now; the
ratios of record (5.4x decode, 3.8x churn) are in
``benchmarks/BENCH_8.json``.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

from repro.bgp.attributes import clear_codec_caches, codec_cache_stats, intern_attributes
from repro.bgp.decision import DecisionProcess
from repro.bgp.messages import (
    KeepaliveMessage,
    OpenMessage,
    UpdateMessage,
    clear_prefix_cache,
    iter_messages,
)
from repro.bgp.rib import AdjRibIn, LocRib, RibRoute
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address
from repro.perf.workloads import (
    LOCAL_ASN,
    PEER_ADDR,
    PEER_ASN,
    RIB_PEER,
    RibOp,
    build_candidate_sets,
    build_decode_stream,
    build_end_to_end_stream,
    build_rib_ops,
)

__all__ = ["BenchResult", "run_suite", "SIZES"]

#: Workload sizing. ``quick`` is the CI smoke profile; ``full`` is what
#: blessed BENCH_8.json numbers are measured with.
SIZES = {
    "full": {
        "decode_table": 1500,
        "decode_passes": 10,
        "rib_table": 1500,
        "rib_rounds": 4,
        "decision_table": 800,
        "decision_repeats": 6,
        "e2e_table": 800,
        "e2e_rounds": 4,
    },
    "quick": {
        "decode_table": 300,
        "decode_passes": 4,
        "rib_table": 300,
        "rib_rounds": 2,
        "decision_table": 150,
        "decision_repeats": 2,
        "e2e_table": 200,
        "e2e_rounds": 2,
    },
}


@dataclass(frozen=True, slots=True)
class BenchResult:
    """One timed workload: operation count and elapsed wall seconds."""

    workload: str
    ops: int
    wall_s: float

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else float("inf")

    def to_json(self) -> "dict[str, object]":
        return {
            "ops": self.ops,
            "wall_s": round(self.wall_s, 6),
            "ops_per_s": round(self.ops_per_s, 2),
            "py_version": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}",
        }


def _time(workload: str, ops: int, run) -> BenchResult:
    """Time one run of *run* (a zero-arg callable) as *ops* operations."""
    start = time.perf_counter()  # repro: noqa[RPR001]
    run()
    elapsed = time.perf_counter() - start  # repro: noqa[RPR001]
    return BenchResult(workload, ops, elapsed)


# -- UPDATE decode ----------------------------------------------------------


def _count_messages(stream: bytes) -> int:
    return sum(1 for _ in iter_messages(stream))


def bench_update_decode(stream: bytes) -> BenchResult:
    """O(n) framing, batched NLRI, memoized attributes."""
    clear_codec_caches()
    clear_prefix_cache()
    ops = _count_messages(stream)

    def run() -> None:
        for _message, _length in iter_messages(stream):
            pass

    # Warm pass already happened during the count; timed pass sees the
    # caches a long-lived session would have.
    return _time("update_decode", ops, run)


# -- RIB churn --------------------------------------------------------------


def _replay_ops(adj, loc, ops: "list[RibOp]") -> None:
    """Drive the speaker's RIB maintenance sequence: neighbour update →
    best-route install, plus aggregate-contributor refreshes."""
    adj_update = adj.update
    adj_withdraw = adj.withdraw
    set_best = loc.set_best
    remove = loc.remove
    covered = loc.covered
    for op in ops:
        kind = op.kind
        if kind == "update":
            adj_update(op.prefix, op.attributes)
            set_best(op.route)
        elif kind == "withdraw":
            adj_withdraw(op.prefix)
            remove(op.prefix)
        else:
            covered(op.prefix)
    # Consume one full snapshot — iteration is part of the contract.
    for _ in adj.items():
        pass
    for _ in loc.routes():
        pass


def _intern_ops(ops: "list[RibOp]") -> "list[RibOp]":
    """What the decode layer hands the speaker: equal
    attribute sets collapsed to one flyweight (routes rebuilt to match)."""
    out: list[RibOp] = []
    for op in ops:
        if op.attributes is None:
            out.append(op)
            continue
        attrs = intern_attributes(op.attributes)
        out.append(RibOp(op.kind, op.prefix, attrs, RibRoute(op.prefix, attrs, RIB_PEER)))
    return out


def bench_rib_churn(ops: "list[RibOp]") -> BenchResult:
    """Trie RIBs fed interned attribute flyweights."""
    interned = _intern_ops(ops)
    adj, loc = AdjRibIn(RIB_PEER), LocRib()
    return _time("rib_churn", len(ops), lambda: _replay_ops(adj, loc, interned))


# -- decision process -------------------------------------------------------


def bench_decision(candidate_sets, repeats: int) -> BenchResult:
    decision = DecisionProcess()

    def run() -> None:
        select = decision.select
        for _ in range(repeats):
            for candidates in candidate_sets:
                select(candidates)

    return _time("decision_process", len(candidate_sets) * repeats, run)


# -- end-to-end speaker pipeline --------------------------------------------


def _connected_speaker() -> BgpSpeaker:
    speaker = BgpSpeaker(
        SpeakerConfig(
            asn=LOCAL_ASN,
            bgp_identifier=IPv4Address.parse("9.9.9.9"),
            local_address=IPv4Address.parse("10.0.0.254"),
            hold_time=0.0,
        )
    )
    speaker.add_peer(PeerConfig("in-peer", PEER_ASN, PEER_ADDR))
    speaker.add_peer(
        PeerConfig("out-peer", PEER_ASN + 1, IPv4Address.parse("10.0.0.2"))
    )
    for peer_id, identifier, asn in (
        ("in-peer", "1.1.1.1", PEER_ASN),
        ("out-peer", "2.2.2.2", PEER_ASN + 1),
    ):
        speaker.set_send_callback(peer_id, lambda data: None)
        speaker.start_peer(peer_id)
        speaker.transport_connected(peer_id)
        speaker.receive_bytes(
            peer_id, OpenMessage(asn, 0, IPv4Address.parse(identifier)).encode()
        )
        speaker.receive_bytes(peer_id, KeepaliveMessage().encode())
    return speaker


def bench_end_to_end(stream: bytes) -> BenchResult:
    """Full pipeline: frame → decode → policy → RIBs → decision → FIB →
    export, then flush the resulting UPDATEs toward the second peer."""
    speaker = _connected_speaker()
    ops = sum(
        message.transaction_count()
        for message, _length in iter_messages(stream)
        if isinstance(message, UpdateMessage)
    )

    def run() -> None:
        speaker.receive_bytes("in-peer", stream)
        speaker.flush_updates("out-peer")

    return _time("end_to_end", ops, run)


# -- suite ------------------------------------------------------------------


def run_suite(quick: bool = False) -> "dict[str, dict[str, object]]":
    """Run every workload; returns the BENCH_*.json payload
    (workload → {ops, wall_s, ops_per_s, py_version, platform})."""
    sizes = SIZES["quick" if quick else "full"]
    decode_stream = build_decode_stream(sizes["decode_table"], sizes["decode_passes"])
    rib_ops = build_rib_ops(sizes["rib_table"], sizes["rib_rounds"])
    candidate_sets = build_candidate_sets(sizes["decision_table"])
    e2e_stream = build_end_to_end_stream(sizes["e2e_table"], sizes["e2e_rounds"])

    results = [
        bench_update_decode(decode_stream),
        bench_rib_churn(rib_ops),
        bench_decision(candidate_sets, sizes["decision_repeats"]),
        bench_end_to_end(e2e_stream),
    ]
    return {result.workload: result.to_json() for result in results}


def cache_stats() -> "dict[str, int]":
    """Codec cache counters accumulated across the suite run."""
    return codec_cache_stats()
