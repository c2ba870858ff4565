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
from repro.experiments.runner import main

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
