"""Microbenchmarks of the substrate hot paths (real wall-clock timing —
the classic pytest-benchmark use): message codec, decision process,
policy chain, damping and MRAI.
"""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.decision import Candidate, DecisionProcess, PeerInfo
from repro.bgp.messages import UpdateMessage, decode_message
from repro.net.addr import IPv4Address
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

