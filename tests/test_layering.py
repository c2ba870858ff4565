"""Layering guard: every ``repro.<a>`` → ``repro.<b>`` import follows
the package DAG written down in DESIGN.md §6, the differential oracles
live under ``tests/oracles/``, not ``src/``, and nothing in ``src/``
times itself — a speed claim is a ``benchmarks/ledger/`` run.
"""

import ast
import dataclasses
import importlib.util
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.bgp
import repro.bgp.attributes
import repro.bgp.messages
from repro.bgp.speaker import BgpSpeaker
from repro.experiments.runner import main
from repro.grid.cells import Cell, GridCell, run_cell
from repro.grid.executor import run_grid
from repro.grid.supervisor import Supervisor, _worker_main
from repro.systems.platforms import build_system
from repro.topo.families import TopoCell, run_topo_cell

CORE = ("repro.net", "repro.bgp", "repro.forwarding", "repro.sim")
CONSUMERS = ("repro.experiments", "repro.grid")

PROBE = f"""
import importlib, sys
for name in {CORE!r}:
    importlib.import_module(name)
print(sorted(m for m in sys.modules if m.startswith({CONSUMERS!r})))
"""


def test_core_packages_do_not_import_their_consumers():
    # A fresh interpreter: this process has long since imported everything.
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert done.stdout.strip() == "[]"


PACKAGE = Path(repro.__file__).parent

#: Imports that point the wrong way today: (importing module, imported
#: package) -> why it cannot move yet. This list may only shrink.
KNOWN_BACK_EDGES = {
    ("repro.systems.calibration", "experiments"):
        "paper Table III lives in repro.experiments.paperdata, which the "
        "frozen benchmarks/ledger imports by that name (ROADMAP item 6)",
    ("repro.systems.router", "topo"):
        "lazy; benchmarks/ledger/probes.py patches "
        "repro.topo.wiring:establish_session by that name",
    ("repro.benchmark.chain", "topo"):
        "lazy; same frozen probe on repro.topo.wiring (wire_oneway lives beside it)",
}


def design_layers():
    """``{package: rank}`` and the observer set, read from the two-line
    package DAG in DESIGN.md."""
    text = (PACKAGE.parents[1] / "DESIGN.md").read_text()
    order = re.search(r"^ {4}(net → .+)$", text, re.MULTILINE).group(1)
    observers = re.search(r"^ {4}observers: (.+)$", text, re.MULTILINE).group(1)
    ranks = {
        package: rank
        for rank, layer in enumerate(order.split(" → "))
        for package in layer.split("/")
    }
    return ranks, set(observers.split())


def package_imports():
    """Every cross-package import under ``src/repro``, function-level
    ones included: ``{(importing module, imported package)}``."""
    edges = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        if len(parts) == 1:
            continue  # repro/__init__.py belongs to no layer
        module = ".".join(("repro",) + parts).removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{module}: relative import"
                names = [node.module]
            else:
                continue
            for name in names:
                target = name.split(".")
                if target[0] == "repro" and len(target) > 1 and target[1] != parts[0]:
                    edges.add((module, target[1]))
    return edges


def test_every_package_import_follows_the_design_dag():
    ranks, observers = design_layers()
    shipped = {path.name for path in PACKAGE.iterdir() if (path / "__init__.py").exists()}
    assert shipped == set(ranks) | observers, "DESIGN.md §6 DAG names every package"

    def allowed(importer: str, imported: str) -> bool:
        if importer in observers:
            return imported not in observers and ranks[imported] <= ranks["systems"]
        if imported in observers:
            return ranks[importer] >= ranks["benchmark"]
        return ranks[imported] < ranks[importer]

    offenders = {
        (module, imported)
        for module, imported in package_imports()
        if not allowed(module.split(".")[1], imported)
    }
    # Both directions: a new back-edge fails, and so does an entry whose
    # import is gone (delete it — the list only shrinks).
    assert offenders == set(KNOWN_BACK_EDGES)


def test_the_cell_runner_knows_no_cell_kind_but_its_own():
    # run_cell used to dispatch on isinstance through a lazy topo import;
    # only the golden-grid reader (grid.baseline) may name TopoCell.
    grid_to_topo = {m for m, imported in package_imports() if imported == "topo"
                    and m.startswith("repro.grid.")}
    assert grid_to_topo == {"repro.grid.baseline"}


def test_one_door_to_the_parallel_engine():
    # `bgpbench topo --shards` is the only way in: no grid, supervisor,
    # cell runner or topology module hands a cell to repro.parallel.
    importers = {m for m, imported in package_imports() if imported == "parallel"}
    assert importers == {"repro.experiments.runner"}


def test_the_topology_imports_no_costed_router():
    # The AS graph runs uncosted speakers only; costed routers are driven
    # by the single-router harnesses and the chain in repro.benchmark.
    importers = {m for m, imported in package_imports() if imported == "systems"
                 and (m == "repro.topo" or m.startswith("repro.topo."))}
    assert importers == set()


@pytest.mark.parametrize("function", [
    run_cell, run_grid, Supervisor, _worker_main, run_topo_cell, TopoCell.run,
    GridCell.run, Cell.run,
], ids=lambda function: function.__qualname__)
def test_shards_is_not_an_execution_knob_of_the_grid(function):
    assert not {"shards", "shard_chaos"} & set(inspect.signature(function).parameters)


def test_oracles_are_not_shipped():
    package = Path(repro.__file__).parent
    shipped = sorted(
        str(path.relative_to(package))
        for name in ("legacy_codec.py", "reference.py", "triemap.py")
        for path in package.rglob(name)
    )
    assert shipped == []


RETIRED_MODULES = [
    "repro.perf",            # in-tree timing harnesses: a speed claim
    "repro.parallel.bench",  # is a benchmarks/ledger/ run
    "repro.net.trie",        # the Loc-RIB is a dict, and so is the FIB
    # Nothing but their own tests ran them (DESIGN.md §7, the census):
    "repro.net.packet",               # the IPv4 data plane: cross-traffic
    "repro.net.checksum",             # is fluid CPU demand, no table or
    "repro.forwarding.pipeline",      # figure forwards a packet
    "repro.forwarding.classifier",
    "repro.sim.trace",                # per-job service journal
    "repro.workload.events",          # timelines: offer_at_rate paces
    "repro.faults",                   # the recovery family: the paper's
    "repro.benchmark.recovery",       # router never loses a session
    "repro.igp",                      # OSPF/RIP: the paper measures BGP only
    "repro.igp.redistribution",       # no paper table has an IGP feed BGP
    "repro.analysis.flow",            # whole-program lint, no recorded catch
    "repro.analysis.linter",          # per-file lint: its two recorded
    "repro.analysis.rules",           # contracts are tier-1 tests
    "repro.grid.journal",             # re-running a grid resumes from the cache
    "repro.grid.chaos",               # the supervisor is tested on real faults
    "repro.forwarding.trie",          # LPM engines: the paper charges FIB
    "repro.forwarding.multibit",      # installs and measures no lookup
    "repro.forwarding.lengthsearch",  # rate; the FIB is one dict
    # One way to do each job:
    "repro.experiments.export",       # each result has its to_jsonable()
    "repro.sim.buckets",              # spread lives beside its one caller
    # Each fact recorded once: the span trace is the telemetry artifact.
    "repro.telemetry.metrics",        # counters that re-counted the spans
]


@pytest.mark.parametrize("name", RETIRED_MODULES)
def test_retired_modules_are_gone(name):
    try:
        spec = importlib.util.find_spec(name)
    except ModuleNotFoundError:  # its parent package is gone too
        spec = None
    assert spec is None


@pytest.mark.parametrize("name", ["configure_aggregate", "remove_aggregate", "tick"])
def test_retired_speaker_methods_are_gone(name):
    # Route aggregation and the all-peers timer poll: no workload, paper
    # table or figure configured or called them.
    assert not hasattr(BgpSpeaker, name)


def _resolve(path):
    module, _, attributes = path.partition(":")
    target = importlib.import_module(module)
    for attribute in filter(None, attributes.split(".")):
        target = getattr(target, attribute)
    return target


@pytest.mark.parametrize("name", [
    "repro.bgp.fsm.FsmViolation",
    "repro.bgp.decision.preference_key",
    "repro.bgp.errors.cease_error",
    "repro.benchmark.report.format_series",
    # A grid cell runs once: it is a pure function of its spec.
    "repro.grid.ExecutionPolicy",
    "repro.grid.outcomes.AttemptRecord",
    "repro.grid.outcomes.OUTCOME_QUARANTINED",
    "repro.forwarding.FibStats",  # WorkLog.fib_* feeds the cost models
    # Artifacts nothing read: metrics are JSON-lines only, and
    # `scenario --profile` prints the top table alone.
    "repro.telemetry.export.metrics_to_prometheus",
    "repro.telemetry.profile.folded_stacks",
    "repro.telemetry.profile.attribute_phases",
    "repro.sim.buckets.overlap",
    # Second copies of a job: results serialize themselves, bgpbench is
    # the one entry point, and chains wire through repro.topo.wiring.
    "repro.experiments.export.to_dict",
    "repro.experiments.export.save_json",
    "repro.experiments.table3.main",
    "repro.experiments.fig3.main",
    "repro.experiments.fig4.main",
    "repro.experiments.fig5.main",
    "repro.experiments.fig6.main",
    "repro.benchmark.chain.connect_routers",
    # The metrics registry's feeders, exporters and checker: the span
    # trace and the result JSON hold what it counted.
    "repro.telemetry.probe.FanoutObserver",
    "repro.telemetry.FanoutObserver",
    "repro.telemetry.export.write_metrics",
    "repro.telemetry.export.write_artifacts",
    "repro.telemetry.export.metrics_to_jsonl",
    "repro.telemetry.export.parse_metrics_jsonl",
    "repro.telemetry.validate.validate_metrics_file",
    "repro.telemetry.validate.validate_file",
    "repro.topo.network.publish_topology_metrics",
    "repro.topo.network:TopologyHarness.publish_metrics",
    "repro.parallel.engine:ParallelEngine.publish_metrics",
    "repro.sim.monitor.CounterRegistry",
    "repro.sim.monitor:CpuMonitor.bind_registry",
    "repro.sim.monitor:RateMonitor.bind_registry",
    # The AS graph runs uncosted speakers only: costed routers are driven
    # by the single-router harnesses and the chain.
    "repro.topo.RouterNode",
    "repro.topo.network.RouterNode",
    "repro.topo.network:TopologyHarness.total",
    # A machine's shape and a task's priority are fixed at construction.
    "repro.sim.cpu._StateField",
    # A packet's chain is one object: counts, not WorkLog deltas.
    "repro.systems.costs.work_delta",
    "repro.systems.router:XorpRouter._submit_exports",
    # Work logs are read as count tuples; nothing copies or adds them.
    "repro.bgp.speaker:WorkLog.snapshot",
    "repro.bgp.speaker:WorkLog.add",
    # An UPDATE is decided and staged as columns: no per-prefix walk.
    "repro.bgp.speaker:BgpSpeaker._run_decision",
    "repro.bgp.speaker:BgpSpeaker._stage_announce_to_peers",
    "repro.bgp.speaker:BgpSpeaker._stage_withdraw_to_peers",
])
def test_retired_names_are_gone(name):
    # No caller was left outside their own tests (DESIGN.md §7, the census).
    owner, _, attribute = name.rpartition(".")
    if owner in RETIRED_MODULES:  # the whole module is gone
        return
    assert not hasattr(_resolve(owner), attribute)


@pytest.mark.parametrize(("owner", "name"), [
    # Policies read the attribute set only: no prefix lists, no MED or
    # prepend actions, and so no per-prefix verdicts.
    ("repro.bgp.policy", "PrefixMatch"),
    ("repro.bgp.policy:Match", "prefixes"),
    ("repro.bgp.policy:Match", "origin_as"),
    ("repro.bgp.policy:Match", "max_path_length"),
    ("repro.bgp.policy:Match.matches", "prefix"),
    ("repro.bgp.policy:Action", "set_med"),
    ("repro.bgp.policy:Action", "prepend_as"),
    ("repro.bgp.policy:Action", "prepend_count"),
    ("repro.bgp.policy:Policy.apply", "prefix"),
    ("repro.bgp.policy:ACCEPT_ALL", "reads_prefix"),
    ("repro.bgp.policy", "REJECT_ALL"),
    ("repro.bgp.attributes:AsPath", "origin_as"),
    # Options no run set: each is now the one value every run used.
    ("repro.bgp.fsm", "ReconnectBackoff"),
    ("repro.bgp.speaker:PeerConfig", "backoff"),
    ("repro.bgp.fsm:SessionFsm", "backoff"),
    ("repro.bgp.fsm:SessionFsm", "connect_retry_time"),
    ("repro.analysis.sanitizer:Sanitizer", "trace_depth"),
    ("repro.analysis.sanitizer:Sanitizer", "heap_check_every"),
    ("repro.topo.network:TopologySanitizer", "heap_check_every"),
    ("repro.topo.network:TopologyHarness", "packing"),
    ("repro.topo.network:TopologyHarness", "world"),
    ("repro.workload.astopo:AsTopology.hierarchy", "base_asn"),
    ("repro.benchmark.harness:ScenarioResult.to_jsonable", "include_series"),
    ("repro.experiments.fig5:render", "charts"),
    ("repro.experiments.fig4:busy_overlap_fraction", "processes"),
    ("repro.experiments.fig4:busy_overlap_fraction", "threshold"),
    ("repro.sim.monitor:CpuMonitor", "bucket_width"),
    ("repro.sim.monitor:RateMonitor", "bucket_width"),
    # One framer: the speaker's.
    ("repro.bgp.messages", "iter_messages"),
    ("repro.bgp", "iter_messages"),
    # Topology runs write no metrics artifact.
    ("repro.topo.families:run_topo_cell", "telemetry_dir"),
    ("repro.parallel.engine:ParallelEngine.run_json", "telemetry_dir"),
    # Costed routers left the topology.
    ("repro.topo.network:TopologyHarness", "measured"),
    ("repro.topo.network:TopologyHarness", "platform"),
    ("repro.topo.families:TopoCell", "measured"),
    ("repro.topo.families:TopoCell", "platform"),
    ("repro.systems.router:RouterSystem", "split_horizon_withdraw"),
    # Monitors are attached by their readers; a result carries no series.
    ("repro.benchmark.harness:ScenarioResult", "cpu_series"),
    ("repro.benchmark.harness:ScenarioResult", "forwarding_series"),
], ids=lambda value: value.rpartition(":")[2].rpartition(".")[2] or value)
def test_retired_options_are_gone(owner, name):
    # DESIGN.md §7 census: outside tests, one value was ever used.
    target = _resolve(owner)
    if inspect.ismodule(target) or not callable(target):
        assert not hasattr(target, name)
    elif dataclasses.is_dataclass(target):
        assert name not in {field.name for field in dataclasses.fields(target)}
        assert not hasattr(target, name)
    else:
        assert name not in inspect.signature(target).parameters


@pytest.mark.parametrize("platform", ["pentium3", "cisco"])
@pytest.mark.parametrize("name", ["collect_latency", "latency_samples", "latencies"])
def test_retired_latency_recorder_is_gone(platform, name):
    # Per-packet latency is read from the packet spans of an attached
    # Telemetry; a router instance keeps no second record of it.
    assert not hasattr(build_system(platform), name)


def test_speaker_has_no_session_event_hook():
    # Session recovery was the hook's only setter; tests read session_events().
    assert not hasattr(build_system("pentium3").speaker, "on_session_event")


EXAMPLES = sorted((PACKAGE.parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_every_example_imports(path):
    # Nothing else runs the examples: importing one (each is guarded by
    # ``if __name__ == "__main__"``) checks every name it takes from src.
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_no_module_mentions_perf_counter():
    package = Path(repro.__file__).parent
    mentions = sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if "perf_counter" in path.read_text()
    )
    assert mentions == []


@pytest.mark.parametrize("command", ["perf", "lint", "check"])
def test_retired_subcommands_are_gone(command, capsys):
    # `check` is `scenario --sanitize`; `lint`'s two recorded contracts
    # are tier-1 tests (docs/ANALYSIS.md).
    with pytest.raises(SystemExit) as raised:
        main([command])
    assert raised.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize(("argv", "flag"), [
    (["scenario", "--platform", "pentium3", "--scenario", "1", "--metrics", "m.jsonl"],
     "--metrics"),
    (["topo", "--telemetry"], "--telemetry"),
    (["topo", "--telemetry-dir", "telemetry"], "--telemetry-dir"),
    (["topo", "--measured", "1"], "--measured"),
    (["topo", "--platform", "xeon"], "--platform"),
    (["grid", "--telemetry-dir", "telemetry"], "--telemetry-dir"),
    (["scenario", "--platform", "pentium3", "--scenario", "1", "--output-dir", "d"],
     "--output-dir"),
    (["repeatability", "--platform", "pentium3", "--scenario", "1",
      "--output-dir", "d"], "--output-dir"),
    (["stability", "--platform", "pentium3", "--output-dir", "d"], "--output-dir"),
    (["chain", "--platforms", "pentium3", "--output-dir", "d"], "--output-dir"),
    (["repeatability", "--platform", "pentium3", "--scenario", "1", "--seed", "7"],
     "--seed"),
], ids=["scenario-metrics", "topo-telemetry", "topo-telemetry-dir", "topo-measured",
        "topo-platform", "grid-telemetry-dir", "scenario-output-dir",
        "repeatability-output-dir", "stability-output-dir", "chain-output-dir",
        "repeatability-seed"])
def test_retired_flags_are_gone(argv, flag, capsys):
    # The metrics artifact is gone: `scenario --trace` and `grid
    # --telemetry [DIR]` write the span trace, and a topology result holds
    # its per-AS rows. The AS graph runs no costed router, and only the
    # experiments write an --output-dir. `repeatability` draws its
    # workloads from `--seeds` alone.
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_only_the_sanitizer_sets_the_simulator_observer():
    # Telemetry records spans through the router and speaker hooks; the
    # simulator's observer slot has one user.
    package = Path(repro.__file__).parent
    setters = sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if re.search(r"\.observer\s*=(?!=)", path.read_text())
    )
    assert setters == ["analysis/sanitizer.py"]


def module_level_containers():
    """``{id: (container, names)}`` for every module-level ``dict``,
    ``list``, ``set`` and ``bytearray`` in the imported ``repro``
    modules; a container re-exported under several names is one entry."""
    found = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set, bytearray)):
                _, names = found.setdefault(id(value), (value, []))
                names.append(f"{module_name}.{name}")
    return found


def test_reset_caches_empties_every_module_level_cache():
    """The fork-safety contract (docs/PERF.md): grid and shard workers
    begin cold by calling ``repro.bgp.reset_caches()``. Any module-level
    container in ``repro`` that a grid cell or a topology cell grows is
    a cache, and one the reset misses would leak warmth from cell to
    cell — this finds it wherever it is defined, so it cannot be
    forgotten."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    repro.bgp.reset_caches()
    before = {key: len(value) for key, (value, _) in module_level_containers().items()}

    run_cell(TopoCell(family="withdraw", origins=2))
    run_cell(GridCell(scenario=1, platform="pentium3", seed=42, table_size=200))
    grown = {
        name: value
        for key, (value, names) in module_level_containers().items()
        if len(value) > before.get(key, 0)
        for name in names
    }
    assert {
        "repro.bgp.attributes._interned",
        "repro.bgp.attributes._decode_cache_strict",
        "repro.bgp.attributes._encode_cache",
        "repro.bgp.attributes._message_cache",
        "repro.bgp.attributes._wire_cache",
        "repro.bgp.messages._message_cache",
        "repro.bgp.messages._wire_cache",
        "repro.bgp.messages._prefix_cache",
        "repro.workload.tablegen._tables",
    } <= set(grown)
    repro.bgp.reset_caches()
    assert {name: len(value) for name, value in grown.items() if value} == {}
    stats = repro.bgp.attributes.codec_cache_stats()
    # The hit/miss counters the ledger's traced snapshot reads, and live
    # sizes; the encode/message/wire memos count nothing.
    assert set(stats) == {
        "intern_hits", "intern_misses", "decode_hits", "decode_misses",
        "interned_size", "decode_cache_size", "encode_cache_size",
        "message_cache_size", "wire_cache_size",
    }
    assert not any(stats.values())
