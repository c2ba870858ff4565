"""Microbenchmarks of the substrate hot paths (real wall-clock timing —
the classic pytest-benchmark use): message codec, LPM tries, decision
process, and the forwarding pipeline.
"""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.decision import Candidate, DecisionProcess, PeerInfo
from repro.bgp.messages import UpdateMessage, decode_message
from repro.forwarding.fib import Fib
from repro.forwarding.pipeline import ForwardingPipeline
from repro.forwarding.lengthsearch import LengthSearchTable
from repro.forwarding.multibit import MultibitTable
from repro.forwarding.trie import BinaryTrie
from repro.net.addr import IPv4Address
from repro.net.packet import IPv4Packet
from repro.net.trie import PrefixTrieMap
from repro.workload.tablegen import generate_table

TABLE = generate_table(2000, seed=42)
NH = IPv4Address.parse("10.0.0.1")
ATTRS = PathAttributes(as_path=AsPath.from_asns([65001, 300, 400]), next_hop=NH)


class TestCodecThroughput:
    def test_encode_large_update(self, benchmark):
        nlri = tuple(e.prefix for e in TABLE.entries[:500])
        update = UpdateMessage(attributes=ATTRS, nlri=nlri)
        wire = benchmark(update.encode)
        assert len(wire) <= 4096

    def test_decode_large_update(self, benchmark):
        nlri = tuple(e.prefix for e in TABLE.entries[:500])
        wire = UpdateMessage(attributes=ATTRS, nlri=nlri).encode()
        decoded = benchmark(decode_message, wire)
        assert len(decoded.nlri) == 500

    def test_decode_small_update(self, benchmark):
        wire = UpdateMessage(attributes=ATTRS, nlri=(TABLE.entries[0].prefix,)).encode()
        decoded = benchmark(decode_message, wire)
        assert len(decoded.nlri) == 1


@pytest.mark.parametrize(
    "trie_class",
    [BinaryTrie, PrefixTrieMap, MultibitTable, LengthSearchTable],
    ids=["binary", "compressed", "multibit", "lengthsearch"],
)
class TestTrieThroughput:
    def test_bulk_insert(self, benchmark, trie_class):
        def build():
            trie = trie_class()
            for entry in TABLE.entries:
                trie.insert(entry.prefix, NH)
            return trie

        trie = benchmark(build)
        assert len(trie) == len(TABLE)

    def test_lookup(self, benchmark, trie_class):
        trie = trie_class()
        for entry in TABLE.entries:
            trie.insert(entry.prefix, NH)
        probes = [entry.prefix.first_address() for entry in TABLE.entries[:256]]

        def lookup_all():
            hits = 0
            for probe in probes:
                if trie.lookup(probe) is not None:
                    hits += 1
            return hits

        assert benchmark(lookup_all) == 256


class TestDecisionThroughput:
    def test_two_candidate_selection(self, benchmark):
        peers = [
            PeerInfo(f"p{i}", 65001 + i, IPv4Address(0x0A000001 + i),
                     IPv4Address(0x01010101 + i))
            for i in range(2)
        ]
        candidates = [
            Candidate(PathAttributes(as_path=AsPath.from_asns([65001 + i, 300]),
                                     next_hop=NH), peers[i])
            for i in range(2)
        ]
        process = DecisionProcess()
        best = benchmark(process.select, candidates)
        assert best is not None


class TestForwardingThroughput:
    def test_rfc1812_fast_path(self, benchmark):
        fib = Fib()
        for entry in TABLE.entries:
            fib.add_route(entry.prefix, NH)
        pipeline = ForwardingPipeline(fib)
        packet = IPv4Packet(
            source=IPv4Address.parse("8.8.8.8"),
            destination=TABLE.entries[0].prefix.first_address(),
            ttl=64,
        )
        packet.encode()
        result = benchmark(pipeline.forward, packet)
        assert result.next_hop == NH


class TestPolicyThroughput:
    def test_rule_chain_evaluation(self, benchmark):
        from repro.bgp.policy import Match, Policy, Rule

        policy = Policy([Rule(Match(as_in_path=60000 + i)) for i in range(50)])
        prefix = TABLE.entries[0].prefix

        def evaluate():
            return policy.apply(prefix, ATTRS)

        assert benchmark(evaluate) == ATTRS  # falls through to accept


class TestDampingThroughput:
    def test_flap_recording(self, benchmark):
        from repro.bgp.damping import RouteDamper

        damper = RouteDamper()
        prefixes = [e.prefix for e in TABLE.entries[:256]]
        clock = {"now": 0.0}

        def record_round():
            clock["now"] += 1.0
            for prefix in prefixes:
                damper.record_attribute_change(prefix, clock["now"])
            return len(damper)

        assert benchmark(record_round) == 256


class TestMraiThroughput:
    def test_offer_and_release(self, benchmark):
        from repro.bgp.mrai import MraiLimiter

        prefixes = [e.prefix for e in TABLE.entries[:256]]
        clock = {"now": 0.0}

        def churn():
            gate = MraiLimiter(interval=30.0)
            for prefix in prefixes:
                gate.offer(prefix, ATTRS, clock["now"])
                gate.offer(prefix, None, clock["now"] + 1.0)
            return len(gate.release_due(clock["now"] + 31.0))

        assert benchmark(churn) == 256


class TestClassifierThroughput:
    def test_tuple_space_classification(self, benchmark):
        from repro.forwarding.classifier import (
            FlowKey,
            FlowRule,
            TupleSpaceClassifier,
        )

        engine = TupleSpaceClassifier()
        for i, entry in enumerate(TABLE.entries[:64]):
            engine.add_rule(
                FlowRule(f"r{i}", priority=i, destination=entry.prefix, protocol=6)
            )
        engine.add_rule(FlowRule("default", priority=0))
        key = FlowKey(
            IPv4Address.parse("8.8.8.8"),
            TABLE.entries[0].prefix.first_address(),
            6, 1234, 80,
        )
        assert benchmark(engine.classify, key) is not None
