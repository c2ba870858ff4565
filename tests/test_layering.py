"""Layering guard: the protocol core, the data plane and the simulator
import nothing from the experiment or grid packages, the differential
oracles live under ``tests/oracles/``, not ``src/``, and nothing in
``src/`` times itself — a speed claim is a ``benchmarks/ledger/`` run.
"""

import importlib.util
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
