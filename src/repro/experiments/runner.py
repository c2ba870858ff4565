"""The ``bgpbench`` command line: regenerate any table or figure.

::

    bgpbench table3 [--table-size N] [--output-dir DIR]
    bgpbench fig3 | fig4 | fig5 | fig6
    bgpbench all
    bgpbench scenario --platform xeon --scenario 6 [--cross-traffic 300]
                      [--trace out.trace.json] [--metrics out.metrics.jsonl]
    bgpbench repeatability --platform pentium3 --scenario 1 --seeds 1 2 3
    bgpbench stability --platform pentium3 --rate 1500
    bgpbench grid --workers 4 [--scenarios ...] [--telemetry]
                  [--cell-timeout 300] [--retries 2] [--max-failures 5]
                  [--resume] [--chaos plan.json]
    bgpbench regress [--golden benchmarks/golden/grid-small.json] [--bless]
    bgpbench topo --family convergence [--tier1 2 --tier2 5 --stubs 18]
                  [--mrai 30] [--damping] [--sanitize] [--telemetry]
                  [--json out.json]
    bgpbench lint [paths ...] [--format json] [--select RPR001 ...]
    bgpbench lint --flow [paths ...] [--baseline PATH] [--update-baseline]
                  [--sarif out.sarif]
    bgpbench check --sanitize [--platform pentium3] [--scenario 5]

``--output-dir`` writes the experiment's result as JSON next to the
text rendering. ``grid`` runs the sharded experiment grid through the
on-disk cell cache; ``regress`` re-runs a committed golden baseline's
grid and exits non-zero on drift (see docs/GRID.md). With one worker and
no resilience flag the cells run in the calling process; ``--workers N``
or any of ``--cell-timeout``/``--retries``/``--max-failures``/``--chaos``
runs them on supervised worker processes, where failing cells degrade to
a failure manifest and exit status 3 instead of aborting the run.
``--resume`` finishes an interrupted run from its checkpoint journal; an
unusable golden file or chaos plan is a usage error (exit 2). ``topo`` runs
one topology benchmark cell (an AS graph of interacting speakers, see
docs/TOPOLOGY.md); ``regress --bless --topo`` creates the topology
golden baseline. ``lint`` runs the
determinism linter over the source tree (``--flow`` switches to the
whole-program dataflow pass, gated through a committed baseline and
exportable as SARIF) and ``check --sanitize`` runs
one scenario in checked mode (see docs/ANALYSIS.md); both exit
non-zero on findings, so CI can gate on them. ``--trace``/``--metrics``
(scenario) and ``--telemetry`` (grid/regress) instrument the run with
:mod:`repro.telemetry` — observe-only, results are byte-identical (see
docs/TELEMETRY.md).
"""

from __future__ import annotations

# repro: cli — this module is the command-line entry point.

import argparse
import sys
from pathlib import Path

from repro.benchmark import run_scenario
from repro.benchmark.statistics import repeatability_study
from repro.experiments import fig3, fig4, fig5, fig6, table3
from repro.experiments.export import save_json
from repro.systems import build_system
from repro.systems.platforms import PLATFORMS

#: command -> (runner(table_size, seed) -> result, render(result) -> str,
#:             default table size)
_EXPERIMENTS = {
    "table3": (lambda size, seed: table3.run_table3(table_size=size, seed=seed),
               table3.render, 2000),
    "fig3": (lambda size, seed: fig3.run_fig3(table_size=size, seed=seed),
             fig3.render, 2000),
    "fig4": (lambda size, seed: fig4.run_fig4(table_size=size, seed=seed),
             fig4.render, 2000),
    "fig5": (lambda size, seed: fig5.run_fig5(table_size=size, seed=seed),
             fig5.render, 1500),
    "fig6": (lambda size, seed: fig6.run_fig6(table_size=size, seed=seed),
             fig6.render, 2000),
}


def _add_common(parser: argparse.ArgumentParser, default_size: int) -> None:
    parser.add_argument(
        "--table-size",
        type=int,
        default=default_size,
        help="synthetic routing-table size (prefixes)",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload PRNG seed")
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="also write the result as JSON into this directory",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgpbench",
        description="Reproduce the experiments of 'Benchmarking BGP Routers' (IISWC 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    help_text = {
        "table3": "Table III: 8 scenarios x 4 systems",
        "fig3": "Figure 3: XORP process activity",
        "fig4": "Figure 4: small vs large packets",
        "fig5": "Figure 5: cross-traffic sweep",
        "fig6": "Figure 6: CPU breakdown + forwarding",
    }
    for command, (_run, _render, default_size) in _EXPERIMENTS.items():
        _add_common(sub.add_parser(command, help=help_text[command]), default_size)
    _add_common(sub.add_parser("all", help="run every experiment"), 1500)

    single = sub.add_parser("scenario", help="run one scenario on one platform")
    _add_common(single, 2000)
    single.add_argument("--platform", choices=sorted(PLATFORMS), required=True)
    single.add_argument("--scenario", type=int, choices=range(1, 9), required=True)
    single.add_argument("--cross-traffic", type=float, default=0.0, help="Mb/s")
    single.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="write a Chrome trace-event file of the run (Perfetto-loadable)",
    )
    single.add_argument(
        "--metrics", type=Path, default=None, metavar="PATH",
        help="write the metric registry (.prom = Prometheus text, else JSON-lines)",
    )
    single.add_argument(
        "--profile", action="store_true",
        help="print the top-style virtual-CPU attribution after the run",
    )

    repeat = sub.add_parser(
        "repeatability", help="dispersion of the metric across workload seeds"
    )
    _add_common(repeat, 1000)
    repeat.add_argument("--platform", choices=sorted(PLATFORMS), required=True)
    repeat.add_argument("--scenario", type=int, choices=range(1, 9), required=True)
    repeat.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])

    stability = sub.add_parser(
        "stability", help="keepalive survival under a sustained update storm"
    )
    _add_common(stability, 500)
    stability.add_argument("--platform", choices=sorted(PLATFORMS), required=True)
    stability.add_argument("--rate", type=float, default=1500.0, help="updates/s")
    stability.add_argument("--duration", type=float, default=30.0, help="seconds")
    stability.add_argument("--hold-time", type=float, default=15.0)

    sub.add_parser("scenarios", help="list the Table I scenario definitions")

    chain = sub.add_parser(
        "chain", help="table propagation through a chain of routers"
    )
    _add_common(chain, 500)
    chain.add_argument(
        "--platforms", nargs="+", choices=sorted(PLATFORMS), required=True,
        help="one router per entry, head to tail",
    )
    chain.add_argument("--packing", type=int, default=500,
                       help="prefixes per UPDATE (1 = small packets)")
    chain.add_argument("--link-delay", type=float, default=0.001, help="seconds")

    grid = sub.add_parser(
        "grid", help="run the sharded (scenario x platform x seed x size) grid"
    )
    _add_grid_arguments(grid)
    grid.add_argument(
        "--output", type=Path, default=None,
        help="write the merged {cell_id: result} mapping as JSON",
    )
    grid.add_argument(
        "--manifest", type=Path, default=None,
        help="write the full run report (results, failure manifest, retry "
             "accounting) as JSON",
    )

    regress = sub.add_parser(
        "regress", help="diff a fresh grid run against a golden baseline"
    )
    regress.add_argument(
        "--golden", type=Path, default=Path("benchmarks/golden/grid-small.json"),
        help="golden baseline file (defines the grid to run)",
    )
    regress.add_argument(
        "--tolerance", type=float, default=None,
        help="override the golden file's relative tolerance",
    )
    regress.add_argument(
        "--bless", action="store_true",
        help="rewrite the golden file from the fresh results instead of diffing",
    )
    regress.add_argument(
        "--topo", action="store_true",
        help="with --bless and no existing golden: pin the default topology "
             "grid instead of the scenario grid",
    )
    _add_pool_arguments(regress)

    topo = sub.add_parser(
        "topo", help="run one topology benchmark cell (AS graph of speakers)"
    )
    topo.add_argument(
        "--family", choices=("convergence", "withdraw", "churn"),
        default="convergence",
        help="benchmark family (see docs/TOPOLOGY.md)",
    )
    topo.add_argument("--tier1", type=int, default=2, help="tier-1 AS count")
    topo.add_argument("--tier2", type=int, default=5, help="tier-2 AS count")
    topo.add_argument("--stubs", type=int, default=18, help="stub AS count")
    topo.add_argument("--seed", type=int, default=42)
    topo.add_argument("--link-delay", type=float, default=0.01,
                      help="mean per-link propagation delay (seconds)")
    topo.add_argument("--mrai", type=float, default=0.0,
                      help="per-peer MRAI interval (seconds, 0 = off)")
    topo.add_argument("--damping", action="store_true",
                      help="enable RFC 2439 flap damping on every peering")
    topo.add_argument("--origins", type=int, default=1,
                      help="number of origin stub ASes")
    topo.add_argument("--flaps", type=int, default=4,
                      help="flap cycles per origin (churn family)")
    topo.add_argument("--flap-interval", type=float, default=60.0,
                      help="seconds per flap cycle (churn family)")
    topo.add_argument("--measured", type=int, default=0,
                      help="instantiate this many tier-1 ASes as full costed "
                           "router systems")
    topo.add_argument("--platform", choices=sorted(PLATFORMS),
                      default="pentium3",
                      help="platform model for --measured routers")
    topo.add_argument("--shards", type=int, default=1,
                      help="run on the conservative parallel engine with this "
                           "many shard processes (results are byte-identical "
                           "to --shards 1; see docs/PARALLEL.md)")
    topo.add_argument("--sanitize", action="store_true",
                      help="run in checked mode (topology-wide sanitizer)")
    topo.add_argument("--telemetry", action="store_true",
                      help="publish per-AS/per-link counters as a metrics "
                           "artifact (observe-only)")
    topo.add_argument("--telemetry-dir", type=Path, default=Path("telemetry"),
                      help="directory for the metrics artifact (with --telemetry)")
    topo.add_argument("--json", type=Path, default=None, metavar="PATH",
                      help="write the canonical {cell_id: result} JSON "
                           "(byte-identical across runs of one spec)")

    lint = sub.add_parser(
        "lint", help="run the determinism linter over the source tree"
    )
    lint.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format",
    )
    lint.add_argument(
        "--select", nargs="+", metavar="RPRxxx", default=None,
        help="run only these rule ids",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    lint.add_argument(
        "--flow", action="store_true",
        help="run the whole-program flow analysis (call graph + "
             "interprocedural taint + shared-state census, RPR101-104) "
             "instead of the per-module rules",
    )
    lint.add_argument(
        "--baseline", type=Path,
        default=Path("benchmarks/analysis/flow-baseline.json"),
        metavar="PATH",
        help="with --flow: committed findings baseline; only findings "
             "absent from it fail the run (ignored when the file does "
             "not exist)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="with --flow: rewrite --baseline from this run's findings "
             "instead of gating on them",
    )
    lint.add_argument(
        "--sarif", type=Path, default=None, metavar="PATH",
        help="with --flow: also write the findings as a SARIF 2.1.0 "
             "log (uploaded from CI to annotate PRs)",
    )

    check = sub.add_parser(
        "check", help="run one scenario in checked (sanitized) mode"
    )
    check.add_argument(
        "--sanitize", action="store_true", default=True,
        help="enable the invariant sanitizer (default: on)",
    )
    check.add_argument("--platform", choices=sorted(PLATFORMS), default="pentium3")
    check.add_argument("--scenario", type=int, choices=range(1, 9), default=5)
    check.add_argument("--table-size", type=int, default=150)
    check.add_argument("--seed", type=int, default=42)
    return parser


def _add_pool_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (results are identical for any count)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cell cache directory (default: .bgpbench-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the cell cache entirely"
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="re-run cells even when cached, refreshing their entries",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run executed cells in checked mode (invariant sanitizer)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="run executed topology cells on the conservative parallel "
             "engine with this many shard processes (byte-identical "
             "results; scenario cells ignore it — see docs/PARALLEL.md)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="instrument executed cells and write per-cell trace/metrics "
             "artifacts (observe-only: results are byte-identical)",
    )
    parser.add_argument(
        "--telemetry-dir", type=Path, default=Path("telemetry"),
        help="directory for per-cell telemetry artifacts (with --telemetry)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget; a cell exceeding it is killed and "
             "recorded as a timeout (supervised execution)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run a failed/timed-out/crashed cell up to N times on a "
             "deterministic backoff schedule (supervised execution)",
    )
    parser.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="quarantine all not-yet-started cells once N cells have "
             "terminally failed (supervised execution)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay the checkpoint journal of an interrupted run and skip "
             "already-completed cells",
    )
    parser.add_argument(
        "--journal", type=Path, default=None, metavar="PATH",
        help="checkpoint journal location (default: <cache-dir>/journal.jsonl; "
             "written whenever supervision or --resume is active)",
    )
    parser.add_argument(
        "--chaos", type=Path, default=None, metavar="PLAN",
        help="inject worker faults from a JSON chaos plan "
             "({cell_id: {kind: crash|hang|flaky, ...}}) — for testing the "
             "resilience layer itself",
    )


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenarios", type=int, nargs="+", choices=range(1, 9),
        default=list(range(1, 9)),
    )
    parser.add_argument(
        "--platforms", nargs="+", choices=sorted(PLATFORMS),
        default=sorted(PLATFORMS),
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[42])
    parser.add_argument("--table-sizes", type=int, nargs="+", default=[400])
    _add_pool_arguments(parser)


def _run_experiment(
    command: str, table_size: int, seed: int, output_dir: "Path | None"
) -> None:
    run, render, _default = _EXPERIMENTS[command]
    result = run(table_size, seed)
    print(render(result))
    if output_dir is not None:
        path = save_json(result, output_dir / f"{command}.json")
        print(f"\n[written {path}]")


#: Exit status for a run that completed but left terminal cell failures
#: behind (``grid``) or could not produce every golden cell (``regress``).
EXIT_PARTIAL_FAILURE = 3


def _make_cache(args):
    from repro.grid import DEFAULT_CACHE_DIR, GridCache

    if args.no_cache:
        return None
    return GridCache(args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR)


def _telemetry_dir(args) -> "str | None":
    return str(args.telemetry_dir) if args.telemetry else None


def _make_policy(args):
    """An ExecutionPolicy when any resilience flag asks for supervision,
    else None (run_grid then supervises only a multi-worker run, with
    the default policy)."""
    from repro.grid import ExecutionPolicy

    if (
        args.cell_timeout is None
        and args.retries == 0
        and args.max_failures is None
        and args.chaos is None
    ):
        return None
    return ExecutionPolicy(
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        max_failures=args.max_failures,
    )


def _make_chaos(args):
    """The --chaos plan, or None; a bad plan file is a usage error."""
    from repro.grid import ChaosPlan, ChaosPlanError

    if args.chaos is None:
        return None
    try:
        return ChaosPlan.from_file(args.chaos)
    except ChaosPlanError as error:
        print(f"{args.command}: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _make_journal(args, policy):
    """Checkpoint journal: on when a resilience flag, --resume or
    --journal asks for one — keyed on the flags, not on whether the run
    ends up supervised, so a plain ``--workers N`` run writes none."""
    from repro.grid import DEFAULT_CACHE_DIR, DEFAULT_JOURNAL_NAME, RunJournal

    if policy is None and not args.resume and args.journal is None:
        return None
    if args.journal is not None:
        path = args.journal
    else:
        cache_dir = args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
        path = Path(cache_dir) / DEFAULT_JOURNAL_NAME
    return RunJournal(path)


def _print_failures(report) -> None:
    print(f"failures ({len(report.failures)}):")
    for _cell_id, failure in sorted(report.failures.items()):
        print(f"  {failure.outcome.upper():11s} {failure.describe()}")


def _run_grid(args) -> int:
    import json

    from repro.grid import enumerate_grid, run_grid

    cells = enumerate_grid(
        scenarios=args.scenarios,
        platforms=args.platforms,
        seeds=args.seeds,
        table_sizes=args.table_sizes,
    )
    policy = _make_policy(args)
    report = run_grid(
        cells,
        workers=args.workers,
        cache=_make_cache(args),
        refresh=args.refresh,
        progress=lambda cell_id, cached: print(
            f"  [{'cache' if cached else ' run '}] {cell_id}"
        ),
        sanitize=args.sanitize,
        telemetry_dir=_telemetry_dir(args),
        policy=policy,
        chaos=_make_chaos(args),
        journal=_make_journal(args, policy),
        resume=args.resume,
        shards=args.shards,
    )
    for cell_id, result in report.results.items():
        tps = result["transactions_per_second"]
        flag = "" if result["completed"] else "  (STALLED)"
        print(f"{cell_id:32s} {tps:10.1f} tps{flag}")
    resumed = f"{report.resumed} resumed, " if report.resumed else ""
    retried = (
        f"{report.retries} retries, {report.timeouts} timeouts, "
        f"{report.worker_crashes} worker crashes, "
        if policy is not None else ""
    )
    print(
        f"{report.cells} cells, {report.executed} executed, {resumed}"
        f"{report.hits} cache hits ({100 * report.hit_rate:.0f}%), "
        f"{retried}{args.workers} worker(s)"
    )
    if not report.ok:
        _print_failures(report)
    if args.telemetry and report.executed:
        print(f"[telemetry artifacts for {report.executed} executed cell(s) "
              f"in {args.telemetry_dir}]")
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(report.to_json() + "\n")
        print(f"[written {args.output}]")
    if args.manifest is not None:
        args.manifest.parent.mkdir(parents=True, exist_ok=True)
        args.manifest.write_text(
            json.dumps(report.to_jsonable(), sort_keys=True, indent=2) + "\n"
        )
        print(f"[written {args.manifest}]")
    return 0 if report.ok else EXIT_PARTIAL_FAILURE


def _run_topo(args) -> int:
    import json

    from repro.grid.cells import result_json
    from repro.topo import TopoCell, run_topo_cell

    try:
        cell = TopoCell(
            family=args.family,
            tier1=args.tier1,
            tier2=args.tier2,
            stubs=args.stubs,
            seed=args.seed,
            link_delay=args.link_delay,
            mrai=args.mrai,
            damping=args.damping,
            origins=args.origins,
            flaps=args.flaps,
            flap_interval=args.flap_interval,
            measured=args.measured,
            platform=args.platform,
        )
    except ValueError as error:
        # A bad spec is a usage error, reported before anything is built.
        print(f"bgpbench topo: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    telemetry_dir = _telemetry_dir(args)
    if telemetry_dir is not None:
        args.telemetry_dir.mkdir(parents=True, exist_ok=True)
    result = run_topo_cell(
        cell,
        sanitize=args.sanitize,
        telemetry_dir=telemetry_dir,
        shards=args.shards,
    )
    if args.shards > 1:
        print(f"[parallel engine: {args.shards} shards]")
    print(
        f"{cell.cell_id}: {result['ases']} ASes, {result['links']} links, "
        f"origins {result['origin_ases']}"
    )
    print(
        f"converged in {result['convergence_time']:.4f}s virtual: "
        f"{result['updates_sent']} UPDATEs, {result['transactions']} "
        f"transactions ({result['transactions_per_second']:.1f} tps)"
    )
    print(
        f"ghost paths {result['ghost_paths']}, path changes "
        f"{result['path_changes']}, MRAI deferrals {result['mrai_deferrals']}, "
        f"damping suppressed {result['damping_suppressed']}, "
        f"routes after {result['fib_size_after']}"
    )
    if args.sanitize:
        print("[sanitizer: clean]")
    if telemetry_dir is not None:
        print(f"[metrics artifact in {telemetry_dir}]")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(result_json({cell.cell_id: result}) + "\n")
        print(f"[written {args.json}]")
    return 0


def _run_regress(args) -> int:
    from repro.grid import bless, compare, load_golden, run_grid
    from repro.grid.baseline import (
        DEFAULT_TOLERANCE,
        GoldenError,
        grid_cells,
        topo_grid_spec,
    )

    golden = None
    try:
        if args.golden.exists():
            golden = load_golden(args.golden)
            grid_spec = golden["grid"]
            tolerance = golden["tolerance"]
        elif args.bless:
            if args.topo:
                from repro.topo import default_topo_grid

                grid_spec = topo_grid_spec(default_topo_grid())
            else:
                grid_spec = {
                    "scenarios": list(range(1, 9)),
                    "platforms": sorted(PLATFORMS),
                    "seeds": [42],
                    "table_sizes": [150],
                }
            tolerance = DEFAULT_TOLERANCE
        else:
            print(f"regress: no golden baseline at {args.golden} "
                  f"(run with --bless to create one)", file=sys.stderr)
            return 2
        cells = grid_cells(grid_spec, source=args.golden)
    except GoldenError as error:
        print(f"regress: {error}", file=sys.stderr)
        return 2
    if args.tolerance is not None:
        tolerance = args.tolerance

    policy = _make_policy(args)
    report = run_grid(
        cells, workers=args.workers, cache=_make_cache(args),
        refresh=args.refresh, sanitize=args.sanitize,
        telemetry_dir=_telemetry_dir(args),
        policy=policy, chaos=_make_chaos(args),
        journal=_make_journal(args, policy), resume=args.resume,
        shards=args.shards,
    )
    if not report.ok:
        # A partial run can neither be blessed nor meaningfully diffed:
        # report what failed and exit with the partial-failure status so
        # CI can tell "the numbers moved" (1) from "cells never ran" (3).
        _print_failures(report)
        if args.bless:
            print("regress: refusing to bless a partial run", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    if args.bless:
        path = bless(args.golden, report.results, grid_spec, tolerance)
        print(f"blessed {len(report.results)} cells -> {path}")
        return 0
    outcome = compare(golden["cells"], report.results, tolerance)
    print(outcome.format())
    return 0 if outcome.ok else 1


def _run_lint(args) -> int:
    from repro.analysis import lint_paths, render_json, render_text
    from repro.analysis.linter import render_rule_list

    if args.list_rules:
        print(render_rule_list())
        return 0
    if args.flow:
        return _run_lint_flow(args)
    try:
        report = lint_paths(args.paths or None, select=args.select)
    except ValueError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    print(render_json(report) if args.format == "json" else render_text(report))
    return 0 if report.ok else 1


def _run_lint_flow(args) -> int:
    from repro.analysis.flow import (
        analyze_paths,
        render_flow_json,
        render_flow_text,
        render_sarif,
        save_baseline,
    )

    try:
        report = analyze_paths(
            args.paths or None,
            baseline_path=None if args.update_baseline else args.baseline,
            select=args.select,
        )
    except ValueError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    if args.update_baseline:
        path = save_baseline(args.baseline, report.all_findings)
        print(f"baselined {len(report.all_findings)} finding(s) -> {path}")
        return 0
    if args.sarif is not None:
        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(render_sarif(report.findings) + "\n")
    print(render_flow_json(report) if args.format == "json" else render_flow_text(report))
    if args.sarif is not None:
        print(f"[SARIF written {args.sarif}]")
    return 0 if report.ok else 1


def _run_check(args) -> int:
    from repro.analysis import Sanitizer, SanitizerError

    router = build_system(args.platform)
    sanitizer = Sanitizer().attach(router) if args.sanitize else None
    try:
        result = run_scenario(
            router, args.scenario, table_size=args.table_size, seed=args.seed
        )
        if sanitizer is not None:
            sanitizer.check_quiescent()
    except SanitizerError as error:
        print(error.describe(), file=sys.stderr)
        return 1
    finally:
        if sanitizer is not None:
            sanitizer.detach()
    print(
        f"{args.platform} scenario {args.scenario}: "
        f"{result.transactions_per_second:.1f} transactions/s "
        f"({result.transactions} transactions in {result.duration:.2f} virtual s)"
    )
    if sanitizer is not None:
        stats = sanitizer.stats
        print(
            f"sanitizer: {stats.events_checked} events checked, "
            f"{stats.heap_checks} heap checks, "
            f"{stats.conservation_checks} conservation checks, "
            f"{stats.quiescent_checks} quiescent check(s) — all invariants held"
        )
    return 0


def _run_single_scenario(args) -> int:
    instrument = (
        args.trace is not None or args.metrics is not None or args.profile
    )
    telemetry = None
    router = build_system(args.platform)
    if instrument:
        from repro.telemetry import Telemetry

        telemetry = Telemetry().attach(router)
    try:
        result = run_scenario(
            router,
            args.scenario,
            table_size=args.table_size,
            cross_traffic_mbps=args.cross_traffic,
            seed=args.seed,
        )
    finally:
        if telemetry is not None:
            telemetry.detach()
    print(
        f"{args.platform} scenario {args.scenario}: "
        f"{result.transactions_per_second:.1f} transactions/s "
        f"({result.transactions} transactions in {result.duration:.2f} virtual s, "
        f"cross-traffic {result.cross_traffic_mbps:.0f} Mb/s)"
    )
    if telemetry is not None:
        from repro.telemetry import build_profile, write_artifacts

        for path in write_artifacts(
            telemetry, trace_path=args.trace, metrics_path=args.metrics
        ):
            print(f"[written {path}]")
        if args.profile:
            print()
            print(build_profile(router.cpu_monitor, telemetry.tracer.spans()).render_top())
    return 0


def _run_stability(args) -> None:
    from repro.benchmark.harness import SPEAKER1, SPEAKER1_ADDR, SPEAKER1_ASN
    from repro.benchmark.stability import KeepaliveProbe, offer_at_rate
    from repro.bgp.policy import ACCEPT_ALL
    from repro.bgp.speaker import PeerConfig
    from repro.workload.tablegen import generate_table
    from repro.workload.updates import UpdateStreamBuilder

    router = build_system(args.platform)
    router.add_peer(
        PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
    )
    router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
    probe = KeepaliveProbe(
        router,
        interval=args.hold_time / 3.0,
        hold_time=args.hold_time,
        horizon=args.duration,
    )
    builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
    table = generate_table(args.table_size, seed=args.seed)
    total = int(args.rate * args.duration)
    rounds = max(2, (total + len(table) - 1) // len(table))
    packets = builder.flap_storm(table, rounds=rounds, prefixes_per_update=1)[:total]
    offer_at_rate(router, SPEAKER1, packets, args.rate)
    router.run_until_idle()
    report = probe.stop()
    verdict = "session holds" if report.session_survives else "SESSION FLAPS"
    print(
        f"{args.platform}: offered {args.rate:.0f} updates/s for "
        f"{args.duration:.0f}s, hold time {args.hold_time:.0f}s"
    )
    print(f"worst keepalive gap: {report.max_gap:.1f}s -> {verdict}")


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in _EXPERIMENTS:
        _run_experiment(args.command, args.table_size, args.seed, args.output_dir)
    elif args.command == "all":
        for command in _EXPERIMENTS:
            _run_experiment(command, args.table_size, args.seed, args.output_dir)
            print()
    elif args.command == "grid":
        return _run_grid(args)
    elif args.command == "regress":
        return _run_regress(args)
    elif args.command == "topo":
        return _run_topo(args)
    elif args.command == "lint":
        return _run_lint(args)
    elif args.command == "check":
        return _run_check(args)
    elif args.command == "scenario":
        return _run_single_scenario(args)
    elif args.command == "repeatability":
        study = repeatability_study(
            args.platform, args.scenario, seeds=args.seeds, table_size=args.table_size
        )
        samples = "  ".join(f"{s:.1f}" for s in study.samples)
        print(f"{args.platform} scenario {args.scenario}, seeds {args.seeds}:")
        print(f"samples: {samples}")
        print(
            f"mean {study.stats.mean:.1f} tps, stdev {study.stats.stdev:.2f}, "
            f"CV {100 * study.stats.coefficient_of_variation:.2f}% -> "
            f"{'repeatable' if study.is_repeatable() else 'NOT repeatable'}"
        )
    elif args.command == "stability":
        _run_stability(args)
    elif args.command == "scenarios":
        from repro.benchmark.scenarios import render_table1

        print(render_table1())
    elif args.command == "chain":
        from repro.benchmark.chain import run_chain_propagation

        result = run_chain_propagation(
            args.platforms,
            table_size=args.table_size,
            prefixes_per_update=args.packing,
            link_delay=args.link_delay,
            seed=args.seed,
        )
        print(f"chain {' -> '.join(args.platforms)}: {args.table_size} prefixes, "
              f"{args.packing}/UPDATE")
        for platform, when, delay in zip(
            args.platforms, result.fib_complete_at, result.per_hop_delays()
        ):
            print(f"  {platform:9s} complete at {when:8.2f}s  (+{delay:.2f}s)")
        print(f"end-to-end convergence: {result.end_to_end:.2f} virtual seconds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
