"""One workload, measured in this (fresh) interpreter.

``run.py`` starts one worker per workload so that each gets its own
peak RSS and no state from a neighbour. The worker prints one JSON
object on stdout: raw repetition timings, the simulated outputs'
digest and verification failures, and — when asked for traced
repetitions — the per-layer figures.

Order inside a run: import ``repro`` (timed), one untimed warm-up
repetition, the untraced timed repetitions (each from cold codec caches,
the state a CLI user gets), peak RSS, and only then the traced
repetitions: probes go in after the numbers a user would see are taken.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]

#: Fewest repetitions a time-boxed (``--seconds``) measurement accepts.
MIN_REPS = 3


def digest_of(results: "dict[str, dict]") -> str:
    from repro.grid import result_json

    return hashlib.sha256(result_json(results).encode("utf-8")).hexdigest()


class Measurement:
    """Runs repetitions of one workload and keeps what verification needs."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.digests: "list[str]" = []
        self.attempted = 0
        self.failures: "list[str]" = []
        self._count = 0

    def repetition(self, timed: bool = True, observe=None):
        """One cold-cache repetition; returns (wall seconds, Repetition).
        *observe(wall, rep)* runs right after the clock stops, before
        the bookkeeping below can add to any probe's counters."""
        import repro.bgp

        self._count += 1
        scratch = self.work_dir / f"rep{self._count}"
        scratch.mkdir(parents=True)
        repro.bgp.reset_caches()
        gc.collect()
        start = perf_counter()
        rep = self.workload.run(scratch)
        wall = perf_counter() - start
        if observe is not None:
            observe(wall, rep)
        shutil.rmtree(scratch, ignore_errors=True)
        if timed:
            self.attempted += rep.attempted
            self.failures += [f"{cell}: {why}" for cell, why in rep.failures.items()]
        self.digests.append(digest_of(rep.results))
        return wall, rep

    def setup_seconds(self) -> float:
        """The repetition's public builder calls alone, outside any
        ``wall_s`` window."""
        import repro.bgp

        repro.bgp.reset_caches()
        gc.collect()
        start = perf_counter()
        self.workload.setup()
        return perf_counter() - start


def traced_snapshot(tracer, wall: float, rep, first_span: int) -> "dict[str, float | None]":
    """Per-layer metrics of one traced repetition."""
    from repro.bgp.attributes import codec_cache_stats

    metrics: "dict[str, float | None]" = {}
    attributed = 0.0
    for layer, row in tracer.layer_table().items():
        if row is None:
            metrics[f"{layer}.calls"] = metrics[f"{layer}.self_s"] = None
            metrics[f"{layer}.share"] = None
            continue
        attributed += row["self_s"]
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.share"] = row["self_s"] / wall
    tally = tracer.tallies

    def count(layer: str, name: str) -> "float | None":
        if metrics[f"{layer}.calls"] is None:
            return None
        return tally[layer].get(name, 0)

    def ratio(top: "float | None", bottom: "float | None") -> "float | None":
        if top is None or bottom is None:
            return None
        return top / bottom if bottom else 0.0

    events = count("sim.engine", "events")
    metrics["sim.engine.events"] = events
    metrics["sim.engine.us_per_event"] = ratio(
        None if events is None else metrics["sim.engine.self_s"] * 1e6, events
    )
    metrics["sim.engine.peak_pending"] = count("sim.engine", "peak_pending")
    for name in ("decode_calls", "encode_calls", "bytes"):
        metrics[f"bgp.messages.{name}"] = count("bgp.messages", name)
    cache = codec_cache_stats()
    hits = cache["intern_hits"] + cache["decode_hits"]
    metrics["bgp.attributes.cache_hit_ratio"] = ratio(
        hits, hits + cache["intern_misses"] + cache["decode_misses"]
    )
    metrics["bgp.attributes.interned_size"] = cache["interned_size"]
    metrics["bgp.rib.noop_ratio"] = ratio(
        count("bgp.rib", "noops"), count("bgp.rib", "ops")
    )
    metrics["bgp.speaker.updates_in"] = count("bgp.speaker", "updates_in")
    metrics["bgp.speaker.updates_out"] = count("bgp.speaker", "updates_out")
    metrics["bgp.mrai.deferrals"] = rep.info.get("mrai_deferrals", 0)
    metrics["bgp.damping.suppressed"] = rep.info.get("damping_suppressed", 0)
    metrics["forwarding.fib_ops"] = count("forwarding", "fib_ops")
    metrics["topo.network.build_s"] = tracer.inclusive_s(
        "repro.topo.families:build_harness"
    )
    metrics["topo.network.link_packets"] = rep.info.get("link_packets", 0)
    metrics["systems.build_s"] = tracer.inclusive_s(
        "repro.systems.platforms:build_system"
    )
    metrics["systems.table3_err"] = rep.info.get("table3_err") or 0.0
    grid_runs = [
        end - start
        for target, start, end, _parent in tracer.spans[first_span:]
        if target == "repro.grid.executor:run_grid"
    ]
    metrics["grid.overhead_s"] = max(
        0.0, sum(grid_runs) - tracer.inclusive_s("repro.grid.cells:run_cell")
    )
    metrics["grid.cache_put_s"] = tracer.inclusive_s("repro.grid.cache:GridCache.put")
    metrics["grid.cache_get_s"] = tracer.inclusive_s("repro.grid.cache:GridCache.get")
    metrics["grid.fingerprint_s"] = tracer.inclusive_s(
        "repro.grid.cache:source_fingerprint"
    )
    metrics["grid.warm_wall_s"] = grid_runs[1] if len(grid_runs) > 1 else 0.0
    metrics["grid.cache_hit_ratio"] = ratio(
        rep.info.get("cache_hits", 0), rep.info.get("cache_lookups", 0)
    )
    metrics["trace.unattributed_frac"] = max(0.0, 1.0 - attributed / wall)
    return metrics


def median_metrics(snapshots: "list[dict]") -> "dict[str, float | None]":
    merged: "dict[str, float | None]" = {}
    for name in snapshots[0]:
        values = [snapshot[name] for snapshot in snapshots]
        merged[name] = (
            None if any(v is None for v in values) else statistics.median(values)
        )
    return merged


def parallel_extras(measurement: Measurement, serial_wall: float) -> "dict[str, float]":
    """The unbounded two-process figures (ROADMAP item 2): the
    ``topo_withdraw`` cell at ``shards=2`` and ``grid_fanout`` at
    ``workers=2``. Zero on the workloads that have no such variant."""
    extras = dict.fromkeys(
        (
            "parallel.wall_s", "parallel.speedup", "parallel.rounds",
            "parallel.remote_messages", "parallel.busy_s_max",
            "parallel.busy_s_sum", "parallel.wait_frac", "grid.pool_wall_s",
        ),
        0.0,
    )
    import repro.bgp

    workload = measurement.workload
    if workload.name == "topo_withdraw":
        from repro.parallel import ParallelEngine

        cell = workload.cell()
        repro.bgp.reset_caches()
        start = perf_counter()
        engine = ParallelEngine(cell, shards=2)
        result = engine.run().to_jsonable()
        wall = perf_counter() - start
        result["cell"] = cell.spec()
        measurement.attempted += 1
        if digest_of({cell.cell_id: result}) != measurement.digests[0]:
            measurement.failures.append(f"{cell.cell_id}: shards=2 digest differs from serial")
        busy = engine.stats.busy_s
        extras.update({
            "parallel.wall_s": wall,
            "parallel.speedup": serial_wall / wall,
            "parallel.rounds": engine.stats.rounds,
            "parallel.remote_messages": engine.stats.remote_messages,
            "parallel.busy_s_max": max(busy),
            "parallel.busy_s_sum": sum(busy),
            "parallel.wait_frac": max(0.0, 1.0 - max(busy) / wall),
        })
    elif workload.name == "grid_fanout":
        scratch = measurement.work_dir / "pool"
        scratch.mkdir(parents=True)
        repro.bgp.reset_caches()
        start = perf_counter()
        rep = workload.run(scratch, workers=2)
        extras["grid.pool_wall_s"] = perf_counter() - start
        shutil.rmtree(scratch, ignore_errors=True)
        measurement.attempted += rep.attempted
        measurement.failures += [f"{cell} (workers=2): {why}" for cell, why in rep.failures.items()]
        if digest_of(rep.results) != measurement.digests[0]:
            measurement.failures.append("grid_fanout: workers=2 digest differs from serial")
    return extras


def measure(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(LEDGER_DIR))
    start = perf_counter()
    import repro.experiments.runner  # noqa: F401 — what `bgpbench` imports at start-up
    import_s = perf_counter() - start
    import_span = ("import repro.experiments.runner", start, start + import_s)

    import workloads

    work_dir = Path(args.work)
    workload = workloads.make(args.workload, args.seed, smoke=bool(args.smoke))
    measurement = Measurement(workload, work_dir)
    measurement.repetition(timed=False)  # warm-up: lazy imports, allocator, page cache

    walls: "list[float]" = []
    setups: "list[float]" = []
    began = perf_counter()
    while True:
        wall, rep = measurement.repetition()
        walls.append(wall)
        setups.append(measurement.setup_seconds())
        if args.repeats:
            if len(walls) >= args.repeats:
                break
        elif len(walls) >= MIN_REPS and perf_counter() - began >= args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "workload": workload.name,
        "op": workload.op,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "walls": walls,
        "setups": setups,
        "peak_rss_kb": peak_rss_kb,
        "sim_ops": rep.ops,
        "cells": rep.attempted,
        "result_digest": measurement.digests[0],
        "table3_err": rep.info.get("table3_err"),
        "trace": None,
    }
    anchor = rep.results.get(workloads.ANCHOR_CELL)
    if anchor is not None:
        tps = anchor["transactions_per_second"]
        out["anchor_tps"] = tps
        if abs(tps / workloads.ANCHOR_TPS - 1.0) > workloads.ANCHOR_TOLERANCE:
            measurement.failures.append(
                f"{workloads.ANCHOR_CELL}: {tps:.2f} tps is not within "
                f"{workloads.ANCHOR_TOLERANCE:.1%} of {workloads.ANCHOR_TPS}"
            )

    if args.traced_reps:
        from probes import Tracer, write_chrome_trace

        untraced_wall = statistics.median(walls)
        tracer = Tracer()
        tracer.install()
        try:
            snapshots = []
            traced_walls = []
            while True:
                tracer.reset()
                first_span = len(tracer.spans)
                wall, rep = measurement.repetition(
                    observe=lambda wall, rep: snapshots.append(
                        traced_snapshot(tracer, wall, rep, first_span)
                    )
                )
                traced_walls.append(wall)
                if (
                    len(snapshots) >= args.traced_reps
                    and perf_counter() - began >= args.seconds
                ):
                    break
        finally:
            tracer.uninstall()
        metrics = median_metrics(snapshots)
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / untraced_wall - 1.0
        metrics.update(parallel_extras(measurement, untraced_wall))
        trace_path = work_dir / f"trace-{workload.name}.json"
        write_chrome_trace(trace_path, tracer.chrome_trace([import_span]))
        out["trace"] = {
            "metrics": metrics,
            "probes_missing": tracer.missing,
            "traced_walls": traced_walls,
            "chrome_trace": str(trace_path),
            "top_self_s": sorted(
                ((target, cell[0], cell[1]) for target, cell in tracer.stats.items()),
                key=lambda row: -row[2],
            )[:12],
        }

    # Probes observe only: every repetition, traced or not, must have
    # produced the same simulated outputs.
    drifted = sum(1 for digest in measurement.digests if digest != measurement.digests[0])
    if drifted:
        measurement.failures.append(
            f"{drifted} of {len(measurement.digests)} repetitions differ from the first"
        )
    out["attempted"] = measurement.attempted
    out["failures"] = measurement.failures
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced-reps", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    json.dump(measure(args), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
