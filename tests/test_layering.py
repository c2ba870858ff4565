"""Layering guard: every ``repro.<a>`` → ``repro.<b>`` import follows
the package DAG written down in DESIGN.md §6, the differential oracles
live under ``tests/oracles/``, not ``src/``, and nothing in ``src/``
times itself — a speed claim is a ``benchmarks/ledger/`` run.
"""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.bgp
import repro.bgp.attributes
import repro.bgp.messages
from repro.experiments.runner import main
from repro.grid.cells import run_cell
from repro.topo.families import TopoCell

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
    ("repro.sim.monitor", "telemetry"):
        "CpuMonitor buckets with repro.telemetry.buckets.spread; moving "
        "buckets into sim is ROADMAP item 8(d)",
    ("repro.bgp.fsm", "sim"):
        "TYPE_CHECKING only: SessionFsm.attach_simulator() is annotated with "
        "the simulator it schedules its timers on",
    ("repro.topo.families", "parallel"):
        "lazy; run_topo_cell(shards > 1) hands the cell to the parallel "
        "engine (deleted or kept by ROADMAP item 5's verdict)",
    ("repro.parallel.shard", "grid"):
        "lazy; a shard process applies its chaos fault with "
        "repro.grid.chaos.apply_chaos (same verdict)",
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


def test_oracles_are_not_shipped():
    package = Path(repro.__file__).parent
    shipped = sorted(
        str(path.relative_to(package))
        for name in ("legacy_codec.py", "reference.py", "triemap.py")
        for path in package.rglob(name)
    )
    assert shipped == []


@pytest.mark.parametrize("name", ["repro.perf", "repro.parallel.bench"])
def test_in_tree_timing_harnesses_are_gone(name):
    assert importlib.util.find_spec(name) is None


def test_only_the_linter_name_table_mentions_perf_counter():
    package = Path(repro.__file__).parent
    mentions = sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if "perf_counter" in path.read_text()
    )
    assert mentions == ["analysis/rules/determinism.py"]


def test_perf_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["perf"])
    assert raised.value.code == 2
    assert "invalid choice: 'perf'" in capsys.readouterr().err


def test_reset_caches_empties_every_module_level_cache():
    """The fork-safety contract (docs/PERF.md): grid and shard workers
    begin cold by calling ``repro.bgp.reset_caches()``. A cache added
    to the codec modules without a ``clear_*`` hook would leak warmth
    into them — this finds it by name, so it cannot be forgotten."""
    def caches():
        return {
            f"{module.__name__}.{name}": value
            for module in (repro.bgp.attributes, repro.bgp.messages)
            for name, value in vars(module).items()
            if isinstance(value, dict)
            and ("_cache" in name or name == "_interned")
            and name != "_cache_counters"
        }

    run_cell(TopoCell(family="withdraw", origins=2))
    warm = {name for name, cache in caches().items() if cache}
    assert {
        "repro.bgp.attributes._interned",
        "repro.bgp.attributes._decode_cache_strict",
        "repro.bgp.attributes._encode_cache",
        "repro.bgp.attributes._message_cache",
        "repro.bgp.messages._message_cache",
        "repro.bgp.messages._prefix_cache",
    } <= warm
    repro.bgp.reset_caches()
    assert {name: len(cache) for name, cache in caches().items() if cache} == {}
    stats = repro.bgp.attributes.codec_cache_stats()
    assert set(stats) >= {
        "intern_hits", "intern_misses", "decode_hits", "decode_misses",
        "message_hits", "message_misses", "encode_hits", "encode_misses",
        "interned_size", "decode_cache_size", "encode_cache_size",
        "message_cache_size",
    }
    assert not any(stats.values())
