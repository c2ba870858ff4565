"""The conservative parallel engine: partitioning, barrier protocol,
byte-identity with the serial engine, and failure semantics.

The headline invariant — the whole reason the subsystem can exist under
the golden gate — is **bit-identity**: for any topology cell and any
shard count, ``ParallelEngine.run_json`` must produce exactly the JSON
``run_topo_cell`` produces serially, under the sanitizer too. The
edge cases the barrier protocol has to survive (zero-delay cross links,
shards with no cross-shard neighbours, stragglers, crashing shard
processes) are pinned here too, each asserting either byte-identity or
a clean structured failure.
"""

import json
import multiprocessing
import os
import signal
import sys

import pytest

from repro.experiments.runner import main
from repro.parallel import (
    LOOKAHEAD_FLOOR,
    ParallelEngine,
    ParallelError,
    Partition,
    Partitioner,
    PartitionError,
    RemoteUpdate,
    injection_key,
)
from repro.topo.families import TopoCell, default_topo_grid, run_topo_cell
from repro.workload.astopo import AsTopology

# A tiny hierarchy keeps every parallel run (process spawns included)
# in the hundreds of ms.
SMALL = dict(tier1=2, tier2=4, stubs=10)


def serial_json(cell, **kwargs):
    return json.dumps(run_topo_cell(cell, **kwargs), sort_keys=True)


def parallel_json(cell, shards, sanitize=False):
    engine = ParallelEngine(cell, shards=shards, sanitize=sanitize)
    return json.dumps(engine.run_json(), sort_keys=True)


class TestPartition:
    def topology(self):
        return AsTopology.hierarchy(seed=42, **SMALL)

    def test_partitioner_covers_exactly(self):
        topology = self.topology()
        for shards in (1, 2, 3, 4, 7):
            partition = Partitioner(shards).partition(topology)
            assert partition.n_shards == shards
            partition.validate_cover(topology.ases())

    def test_partitioner_is_deterministic(self):
        topology = self.topology()
        assert (
            Partitioner(4).partition(topology)
            == Partitioner(4).partition(self.topology())
        )

    def test_degree_weighted_balance(self):
        """No shard may hoard the hubs: every shard's degree load stays
        within one AS of the ceiling-average (the greedy cap)."""
        topology = self.topology()
        weights = {
            asn: 1 + len(topology.neighbors(asn)) for asn in topology.ases()
        }
        partition = Partitioner(4).partition(topology)
        loads = [
            sum(weights[asn] for asn in members) for members in partition.shards
        ]
        capacity = -(-sum(weights.values()) // 4)
        assert max(loads) <= capacity + max(weights.values())

    def test_more_shards_than_ases_pads_empty(self):
        topology = self.topology()
        n = len(topology)
        partition = Partitioner(n + 5).partition(topology)
        assert partition.n_shards == n + 5
        partition.validate_cover(topology.ases())

    def test_explicit_assignment_and_errors(self):
        partition = Partition.explicit({1: 0, 2: 1, 3: 0})
        assert partition.shards == ((1, 3), (2,))
        assert partition.shard_of(2) == 1
        with pytest.raises(PartitionError):
            partition.shard_of(99)
        with pytest.raises(PartitionError):
            Partition.explicit({})
        with pytest.raises(PartitionError):
            Partition.explicit({1: 2}, shards=2)  # index out of range
        with pytest.raises(PartitionError):
            Partition(((1, 2), (2,)))  # duplicate AS

    def test_validate_cover_reports_missing_and_extra(self):
        partition = Partition.explicit({1: 0, 2: 0})
        with pytest.raises(PartitionError, match="missing=\\[3\\]"):
            partition.validate_cover([1, 2, 3])
        with pytest.raises(PartitionError, match="extra=\\[2\\]"):
            partition.validate_cover([1])

    def test_cross_links_in_input_order(self):
        partition = Partition.explicit({1: 0, 2: 1, 3: 0})
        links = [(1, 3), (1, 2), (2, 3)]
        assert partition.cross_links(links) == ((1, 2), (2, 3))

    def test_injection_key_orders_batches(self):
        updates = [
            RemoteUpdate(src=2, dst=3, sent_at=0.0, arrival=0.5, seq=1, payload=b"b"),
            RemoteUpdate(src=2, dst=3, sent_at=0.0, arrival=0.5, seq=0, payload=b"a"),
            RemoteUpdate(src=1, dst=3, sent_at=0.0, arrival=0.5, seq=0, payload=b"c"),
            RemoteUpdate(src=1, dst=3, sent_at=0.0, arrival=0.2, seq=0, payload=b"d"),
        ]
        ordered = sorted(updates, key=injection_key)
        assert [u.payload for u in ordered] == [b"d", b"c", b"a", b"b"]


class TestByteIdentity:
    @pytest.mark.parametrize("family", ("convergence", "withdraw", "churn"))
    def test_small_cells_identical_at_2_and_3_shards(self, family):
        cell = TopoCell(family=family, origins=2, **SMALL)
        expected = serial_json(cell)
        assert parallel_json(cell, 2) == expected
        assert parallel_json(cell, 3) == expected

    def test_golden_grid_cell_identical_at_4_shards(self):
        """The blessed golden cell spec, exactly as the regress gate
        runs it — ``--shards 4`` must be byte-identical."""
        cell = default_topo_grid()[0]
        assert parallel_json(cell, 4) == serial_json(cell)

    def test_mrai_and_damping_timers_stay_identical(self):
        cell = TopoCell(family="churn", mrai=2.0, damping=True, **SMALL)
        assert parallel_json(cell, 3) == serial_json(cell)

    def test_sanitize_identical(self):
        cell = TopoCell(family="withdraw", **SMALL)
        expected = serial_json(cell, sanitize=True)
        assert parallel_json(cell, 2, sanitize=True) == expected


class TestBarrierEdgeCases:
    def test_zero_delay_cross_links_rejected(self):
        """Link delays at or below the lookahead floor give the
        conservative protocol no window to advance: a clean error, not
        a hang."""
        cell = TopoCell(family="convergence", link_delay=LOOKAHEAD_FLOOR / 2, **SMALL)
        with pytest.raises(ParallelError, match="lookahead"):
            ParallelEngine(cell, shards=2)

    def test_zero_delay_links_fine_inside_one_shard(self):
        """The floor binds cross-shard links only: an all-on-one-shard
        partition has no cross links and runs to completion."""
        cell = TopoCell(family="convergence", link_delay=LOOKAHEAD_FLOOR / 2, **SMALL)
        topology = AsTopology.hierarchy(seed=cell.seed, **SMALL)
        partition = Partition.explicit(
            {asn: 0 for asn in topology.ases()}, shards=2
        )
        result = json.dumps(
            ParallelEngine(cell, partition=partition).run_json(), sort_keys=True
        )
        assert result == serial_json(cell)

    def test_shard_with_no_cross_neighbours(self):
        """An empty shard (no ASes, hence no cross-shard neighbours)
        idles through every barrier without stalling the run."""
        cell = TopoCell(family="withdraw", **SMALL)
        topology = AsTopology.hierarchy(seed=cell.seed, **SMALL)
        partition = Partition.explicit(
            {asn: 0 for asn in topology.ases()}, shards=3
        )
        engine = ParallelEngine(cell, partition=partition)
        result = engine.run()
        assert engine.lookahead == float("inf")
        assert engine.stats.remote_messages == 0
        assert json.dumps(
            {**result.to_jsonable(), "cell": cell.spec()}, sort_keys=True
        ) == serial_json(cell)

    def test_engine_needs_shards_or_partition(self):
        with pytest.raises(ParallelError, match="shard count"):
            ParallelEngine(TopoCell(family="convergence", **SMALL))

    def test_crashing_shard_is_a_clean_error(self):
        """A shard killed outright (SIGKILL: a segfault or the OOM
        killer) reads as pipe EOF and names the shard."""

        class KilledShard(ParallelEngine):
            def _spawn(self):
                super()._spawn()
                self._procs[1].kill()

        cell = TopoCell(family="convergence", **SMALL)
        with pytest.raises(ParallelError, match="shard 1 died"):
            KilledShard(cell, shards=2).run()

    def test_shard_dying_between_barriers_is_a_clean_error(self):
        """The next request to a dead shard is a ParallelError too, not a
        BrokenPipeError escaping from the coordinator's send."""

        class KilledAfterReady(ParallelEngine):
            def _gather(self):
                replies = super()._gather()
                if self._procs[1].is_alive():
                    self._procs[1].kill()
                    self._procs[1].join()
                return replies

        cell = TopoCell(family="convergence", **SMALL)
        with pytest.raises(ParallelError, match="shard 1 died"):
            KilledAfterReady(cell, shards=2).run()

    def test_straggler_shard_misses_round_timeout(self):
        """A shard that stops answering (SIGSTOP) trips the engine's own
        barrier deadline instead of hanging the run."""

        class FrozenShard(ParallelEngine):
            def _spawn(self):
                super()._spawn()
                os.kill(self._procs[0].pid, signal.SIGSTOP)

            def _teardown(self):
                os.kill(self._procs[0].pid, signal.SIGCONT)
                super()._teardown()

        cell = TopoCell(family="convergence", **SMALL)
        with pytest.raises(ParallelError, match="missed the barrier"):
            FrozenShard(cell, shards=2, round_timeout=1.5).run()


class TestTopoCommand:
    """``bgpbench topo --shards`` is the one door to the engine; CI's
    ``parallel`` job runs the same comparison on a larger cell."""

    ARGS = ["topo", "--family", "churn", "--tier1", "2", "--tier2", "4",
            "--stubs", "10", "--origins", "2", "--mrai", "5", "--damping"]

    def run_cli(self, tmp_path, shards, capsys):
        out = tmp_path / f"shards{shards}"
        assert main([*self.ARGS, "--shards", str(shards),
                     "--json", str(out / "run.json")]) == 0
        return capsys.readouterr().out, out

    def test_sharded_command_writes_the_serial_bytes(self, tmp_path, capsys):
        serial_out, serial = self.run_cli(tmp_path, 1, capsys)
        sharded_out, sharded = self.run_cli(tmp_path, 3, capsys)
        assert "[parallel engine: 3 shards]" in sharded_out
        assert "parallel engine" not in serial_out
        assert (sharded / "run.json").read_bytes() == (serial / "run.json").read_bytes()


# -- fork-safety contract ----------------------------------------------------


def _probe_attempt_counters(conn, spec):
    """Forked-worker probe: records the codec-cache counters inherited
    from the parent, runs a real supervised-attempt entry, and reports
    the counters the attempt left behind."""
    from repro.bgp.attributes import codec_cache_stats
    from repro.grid.supervisor import _worker_main
    from repro.topo.families import TopoCell

    inherited = dict(codec_cache_stats())
    task_recv, task_send = multiprocessing.Pipe(duplex=False)
    result_recv, result_send = multiprocessing.Pipe(duplex=False)
    task_send.send(TopoCell.from_spec(spec))
    task_send.send(None)
    _worker_main(task_recv, result_send, False, None)
    status = result_recv.recv()[0]
    conn.send((inherited, status, dict(codec_cache_stats())))
    conn.close()


@pytest.mark.skipif(sys.platform == "win32", reason="fork start method")
class TestForkSafetyContract:
    def test_forked_attempt_worker_sees_cold_cache_counters(self):
        """docs/PERF.md contract: worker processes begin cold. Warm the
        parent's codec caches, fork a worker running ``_worker_main``,
        and check (a) the warmth really was inherited across the fork
        and (b) the attempt's final counters equal a cold reference run
        — i.e. ``reset_caches()`` ran before any cell work."""
        from repro.bgp import reset_caches
        from repro.bgp.attributes import (
            PathAttributes,
            codec_cache_stats,
            intern_attributes,
        )

        cell = TopoCell(family="convergence", **SMALL)

        # Cold reference: what the counters look like after exactly one
        # cell run from a clean slate.
        reset_caches()
        run_topo_cell(cell)
        reference = dict(codec_cache_stats())

        # Warm the parent well past the reference numbers.
        reset_caches()
        for seq in range(50):
            attrs = PathAttributes(med=seq)
            intern_attributes(attrs)
            intern_attributes(attrs)
        warm = dict(codec_cache_stats())
        assert warm["intern_hits"] >= 50

        ctx = multiprocessing.get_context("fork")
        parent_end, child_end = ctx.Pipe(duplex=False)
        probe = ctx.Process(
            target=_probe_attempt_counters, args=(child_end, cell.spec())
        )
        probe.start()
        child_end.close()
        inherited, status, after = parent_end.recv()
        probe.join(10.0)

        assert status == "ok"
        # The fork really did carry the parent's warmth in ...
        assert inherited["intern_hits"] == warm["intern_hits"]
        # ... and the worker entry wiped it before touching the cell:
        # counters match the cold reference exactly, with none of the
        # parent's 50+ intern hits mixed in.
        assert after == reference
