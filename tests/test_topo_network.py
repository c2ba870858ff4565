"""Tests for the live AS-graph network: wiring, harness, sanitizer."""

import hashlib
import json

import pytest

from repro.bgp.mrai import MraiLimiter
from repro.bgp.speaker import BgpSpeaker, PeerConfig, SpeakerConfig
from repro.net.addr import IPv4Address
from repro.topo.families import TopoCell, run_topo_cell
from repro.topo.network import (
    TopologyHarness,
    TopologySanitizer,
    as_address,
    origin_prefix,
    peer_name,
)
from repro.topo.wiring import WiringError, establish_session, handshake_pair
from repro.workload.astopo import AsTopology, Relationship, valley_free_paths


def speaker(asn):
    address = as_address(asn)
    return BgpSpeaker(
        SpeakerConfig(
            asn=asn, bgp_identifier=address, local_address=address, hold_time=0.0
        )
    )


def small_topology():
    return AsTopology.hierarchy(tier1=2, tier2=4, stubs=10, seed=42)


def converge(harness, origin):
    node = harness.nodes[origin]
    harness.sim.schedule(0.0, lambda: node.originate(origin_prefix(origin)))
    harness.run()


class TestWiring:
    def test_handshake_pair_establishes_both_sides(self):
        a, b = speaker(65001), speaker(65002)
        a.add_peer(PeerConfig("toB", 65002, as_address(65002)))
        b.add_peer(PeerConfig("toA", 65001, as_address(65001)))
        handshake_pair(a, "toB", b, "toA")
        assert a.peers["toB"].established
        assert b.peers["toA"].established

    def test_wrong_asn_raises_wiring_error(self):
        a = speaker(65001)
        a.add_peer(PeerConfig("toB", 65002, as_address(65002)))
        with pytest.raises(WiringError):
            # Synthesized OPEN carries an ASN the config does not expect.
            establish_session(a, "toB", 64999, IPv4Address.parse("10.9.9.9"))


class TestTopologyHarness:
    def test_every_session_established(self):
        harness = TopologyHarness(small_topology(), seed=42)
        for node in harness.nodes.values():
            for peer in node.speaker.peers.values():
                assert peer.established

    def test_origin_reaches_every_as(self):
        topology = small_topology()
        harness = TopologyHarness(topology, seed=42)
        origin = topology.ases()[-1]
        converge(harness, origin)
        prefix = origin_prefix(origin)
        for asn, node in harness.nodes.items():
            if asn == origin:
                continue
            assert node.best_path(prefix) is not None, f"AS {asn} unreachable"
            assert node.best_path(prefix)[-1] == origin

    def test_live_paths_are_valley_free(self):
        """The tentpole invariant: compiled policies make valley-free
        propagation emerge from real policy evaluation."""
        topology = small_topology()
        harness = TopologyHarness(topology, seed=42)
        for origin in (topology.ases()[0], topology.ases()[-1]):
            prefix = origin_prefix(origin)
            node = harness.nodes[origin]
            harness.sim.schedule(0.0, lambda n=node, p=prefix: n.originate(p))
        harness.run()
        for origin in (topology.ases()[0], topology.ases()[-1]):
            prefix = origin_prefix(origin)
            for asn, node in harness.nodes.items():
                path = node.best_path(prefix)
                if path is None or asn == origin:
                    continue
                # Propagation order: origin ... viewer.
                traversal = tuple(reversed((asn,) + path))
                assert_valley_free(topology, traversal)

    def test_live_reachability_matches_abstract_propagation(self):
        topology = small_topology()
        harness = TopologyHarness(topology, seed=42)
        origin = topology.ases()[-1]
        converge(harness, origin)
        predicted = valley_free_paths(topology, origin)
        prefix = origin_prefix(origin)
        live = {
            asn
            for asn, node in harness.nodes.items()
            if node.best_path(prefix) is not None
        }
        assert live == set(predicted)

    def test_withdraw_leaves_no_routes_and_counts_ghosts(self):
        topology = small_topology()
        harness = TopologyHarness(topology, seed=42)
        origin = topology.ases()[-1]
        converge(harness, origin)
        prefix = origin_prefix(origin)
        harness.start_watch([prefix])
        node = harness.nodes[origin]
        harness.sim.schedule(0.0, lambda: node.withdraw(prefix))
        harness.run()
        assert harness.total_routes() == 0
        # Path exploration: at least one AS adopted a transient path.
        assert sum(n.ghost_paths for n in harness.nodes.values()) > 0

    def test_link_delays_seeded_and_deterministic(self):
        topology = small_topology()
        h1 = TopologyHarness(topology, seed=1)
        h2 = TopologyHarness(small_topology(), seed=1)
        h3 = TopologyHarness(small_topology(), seed=2)
        delays1 = [link.delay for link in h1.links.values()]
        delays2 = [link.delay for link in h2.links.values()]
        delays3 = [link.delay for link in h3.links.values()]
        assert delays1 == delays2
        assert delays1 != delays3

    def test_mrai_withholds_then_releases(self):
        topology = small_topology()
        harness = TopologyHarness(topology, seed=42, mrai_interval=30.0)
        origin = topology.ases()[-1]
        converge(harness, origin)
        prefix = origin_prefix(origin)
        harness.start_watch([prefix])
        node = harness.nodes[origin]
        harness.sim.schedule(0.0, lambda: node.withdraw(prefix))
        harness.run()
        # The withdraw storm forces re-advertisements inside the MRAI
        # interval; the gates must defer some, and the run must still
        # quiesce (release events drain the pending state).
        assert sum(n.mrai_deferrals for n in harness.nodes.values()) > 0
        assert harness.quiescent()
        assert harness.total_routes() == 0

    def test_measured_node_runs_costed_router(self):
        topology = small_topology()
        measured_asn = topology.ases()[0]
        harness = TopologyHarness(topology, seed=42, measured={measured_asn})
        node = harness.nodes[measured_asn]
        assert node.measured
        origin = topology.ases()[-1]
        converge(harness, origin)
        assert node.best_path(origin_prefix(origin)) is not None
        # The costed router installed the route in its FIB.
        assert sorted(node.router.fib.routes()) == node.speaker.loc_rib.fib_view()

    def test_unknown_measured_as_rejected(self):
        with pytest.raises(ValueError, match="not in topology"):
            TopologyHarness(small_topology(), measured={9999})

    def test_metrics_published_with_as_labels(self):
        from repro.telemetry.metrics import MetricRegistry

        topology = small_topology()
        harness = TopologyHarness(topology, seed=42)
        origin = topology.ases()[-1]
        converge(harness, origin)
        registry = MetricRegistry(clock=lambda: harness.sim.now)
        harness.publish_metrics(registry)
        state = registry.state()
        sent = state["topo_updates_sent_total"]
        labelled = {child["labels"]["asn"] for child in sent["children"]}
        assert labelled == {str(asn) for asn in topology.ases()}
        assert "topo_link_packets_total" in state
        assert "topo_mrai_deferrals_total" in state
        assert "topo_ghost_paths_total" in state


def star_topology(customers):
    """One tier-1 hub (AS 1) with *customers* stub customers (AS 11...)."""
    topology = AsTopology()
    topology.add_as(1, tier=1)
    for index in range(customers):
        topology.add_as(11 + index, tier=3)
        topology.relate(1, 11 + index, Relationship.CUSTOMER)
    return topology


class TestMraiScheduling:
    """The node schedules what the speaker reports — it never walks its
    peers asking each limiter for a deadline."""

    N = 12

    def hub_with_one_recently_sent_peer(self, monkeypatch):
        harness = TopologyHarness(star_topology(self.N), seed=42, mrai_interval=30.0)
        hub = harness.nodes[1]
        prefix = origin_prefix(11)
        # As if AS 12 alone had just been sent this prefix: the next
        # change for it is withheld on that one gate and passes the rest.
        hub.speaker.peers[peer_name(12)].mrai.offer(prefix, None, now=0.0)
        calls = []
        real = MraiLimiter.next_release_time

        def counted(limiter):
            calls.append(limiter)
            return real(limiter)

        monkeypatch.setattr(MraiLimiter, "next_release_time", counted)
        return harness, hub, prefix, calls

    def test_one_withheld_change_touches_one_handle_not_n(self, monkeypatch):
        harness, hub, prefix, calls = self.hub_with_one_recently_sent_peer(monkeypatch)
        origin = harness.nodes[11]
        harness.sim.schedule(0.0, lambda: origin.originate(prefix))
        harness.run(until=1.0)
        assert hub.mrai_deferrals == 1
        assert list(hub._mrai_handles) == [peer_name(12)]
        assert hub._mrai_handles[peer_name(12)].time == 30.0
        # One read when the change was withheld — not one per peer.
        assert len(calls) == 1
        harness.run()
        # ... and one when the release fired and found nothing left.
        assert len(calls) == 2
        assert harness.quiescent()
        assert harness.nodes[12].best_path(prefix) == (1, 11)

    def test_session_down_cancels_the_armed_release(self, monkeypatch):
        harness, hub, prefix, _calls = self.hub_with_one_recently_sent_peer(monkeypatch)
        origin = harness.nodes[11]
        harness.sim.schedule(0.0, lambda: origin.originate(prefix))
        harness.run(until=1.0)
        handle = hub._mrai_handles[peer_name(12)]
        assert handle.active
        link = harness.links[(1, 12)]
        sent = link.a_to_b_packets
        hub.speaker.transport_failed(peer_name(12), now=harness.sim.now)
        hub.flush()
        assert not handle.active
        harness.run()
        assert harness.quiescent()
        # Nothing went onto the dead session.
        assert link.a_to_b_packets == sent


class TestMraiPinned:
    """No golden has ``mrai > 0``; these pin the timer path's results
    (values taken before the MRAI schedule moved into the speaker)."""

    GRAPH = dict(tier1=2, tier2=8, stubs=30, seed=42)

    @pytest.mark.parametrize(
        "knobs, deferrals, expected",
        [
            (dict(family="churn", origins=3, mrai=5.0, damping=True), 486, "56fdc7f21464b5e6"),
            (dict(family="churn", origins=3, mrai=30.0), 1351, "cd1f934ea60a40f3"),
            (
                dict(family="withdraw", origins=2, mrai=15.0, measured=1, platform="xeon"),
                203,
                "e498151abd3abda4",
            ),
            (
                dict(family="convergence", origins=2, mrai=2.0, damping=True, measured=1),
                8,
                "9e0641d376533a82",
            ),
        ],
    )
    def test_result_hash(self, knobs, deferrals, expected):
        result = run_topo_cell(TopoCell(**knobs, **self.GRAPH))
        assert result["mrai_deferrals"] == deferrals  # the gates were exercised
        blob = json.dumps(result, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == expected


class TestTopologySanitizer:
    def test_clean_run_passes(self):
        topology = small_topology()
        harness = TopologyHarness(topology, seed=42)
        sanitizer = TopologySanitizer(harness)
        converge(harness, topology.ases()[-1])
        sanitizer.check_quiescent()
        assert sanitizer.stats.events_checked > 0
        assert sanitizer.stats.quiescent_checks == 1

    def test_detects_injected_imbalance(self):
        from repro.analysis.sanitizer import SanitizerError

        topology = small_topology()
        harness = TopologyHarness(topology, seed=42)
        sanitizer = TopologySanitizer(harness)
        victim = harness.nodes[topology.ases()[3]]
        victim.speaker.audit.announced += 7  # corrupt the ledger
        with pytest.raises(SanitizerError, match="prefix-conservation"):
            converge(harness, topology.ases()[-1])

    def test_rib_fib_disagreement_names_the_as_and_the_prefix(self):
        from repro.analysis.sanitizer import SanitizerError

        topology = small_topology()
        measured, origin = topology.ases()[0], topology.ases()[-1]
        harness = TopologyHarness(topology, seed=42, measured={measured})
        sanitizer = TopologySanitizer(harness)
        converge(harness, origin)
        harness.nodes[measured].router.fib.delete_route(origin_prefix(origin))
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check_quiescent()
        assert excinfo.value.invariant == "rib-fib-agreement"
        assert excinfo.value.message.startswith(f"AS {measured}: ")
        assert f"Loc-RIB only (first: {origin_prefix(origin)})" in excinfo.value.message


def assert_valley_free(topology, traversal):
    """*traversal* is the propagation order origin ... viewer; after the
    path turns downhill (or crosses a peer link) it must never climb."""
    descending = False
    for current, nxt in zip(traversal, traversal[1:]):
        relationship = topology.relationship(current, nxt)
        assert relationship is not None, f"no link {current}-{nxt}"
        if relationship is Relationship.PROVIDER:
            assert not descending, f"valley in {traversal}"
        else:  # crossed a peer link or went down to a customer
            descending = True
