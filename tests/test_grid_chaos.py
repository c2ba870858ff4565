"""The grid command line under real worker faults.

Faults come from the processes themselves: a worker SIGKILLs itself or
raises from inside the cell it runs (a ``run_scenario`` patch that the
forked workers inherit), and the CLI's own parent process is SIGKILLed
mid-run. An interrupted grid is resumed by running the same command
again: every finished cell is already in the cache.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import EXIT_PARTIAL_FAILURE, main
from repro.grid import cells as cells_module

forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the monkeypatched run_scenario reaches workers by fork",
)


def misbehave(monkeypatch, platform, action):
    """Call *action* in the worker before every run of a *platform* cell."""
    run_scenario = cells_module.run_scenario

    def patched(router, scenario, **kwargs):
        if router.spec.name == platform:
            action()
        return run_scenario(router, scenario, **kwargs)

    monkeypatch.setattr(cells_module, "run_scenario", patched)


def crash():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("command", ["grid", "regress"])
@pytest.mark.parametrize("flag", [
    ["--resume"], ["--journal", "journal.jsonl"], ["--chaos", "plan.json"],
    ["--retries", "1"], ["--max-failures", "1"],
], ids=["resume", "journal", "chaos", "retries", "max-failures"])
def test_checkpoint_and_fault_plan_flags_are_gone(capsys, command, flag):
    # Re-running the command resumes from the cache, the supervisor is
    # tested on real faults, and a cell runs once (it is a pure function
    # of its spec, so a retry replays the failure): none of these flags
    # has a job left.
    with pytest.raises(SystemExit) as raised:
        main([command, *flag])
    assert raised.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@forked_workers
class TestGridCliResilience:
    CELLS = [
        "grid", "--scenarios", "1", "--platforms", "cisco", "pentium3",
        "--seeds", "7", "--table-sizes", "60",
    ]
    CELL_ARGS = [*CELLS, "--no-cache"]

    def test_chaos_run_exits_partial_failure_with_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        misbehave(monkeypatch, "cisco", crash)
        manifest_path = tmp_path / "manifest.json"
        code = main([
            *self.CELL_ARGS, "--cell-timeout", "120", "--manifest", str(manifest_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL_FAILURE
        assert "CRASHED" in out and "s1-cisco-seed7-n60" in out

        manifest = json.loads(manifest_path.read_text())
        failure = manifest["failures"]["s1-cisco-seed7-n60"]
        assert failure["outcome"] == "crashed"
        assert f"exit code {-signal.SIGKILL}" in failure["message"]
        assert manifest["worker_crashes"] == 1
        assert list(manifest["results"]) == ["s1-pentium3-seed7-n60"]

    def test_cli_resume_round_trip(self, tmp_path, capsys, monkeypatch):
        cached = [*self.CELLS, "--workers", "2", "--cache-dir", str(tmp_path / "c")]
        misbehave(monkeypatch, "cisco", crash)
        assert main(cached) == EXIT_PARTIAL_FAILURE
        capsys.readouterr()

        # The fault is gone; the same command finishes the run without
        # re-executing the cell that completed.
        monkeypatch.undo()
        code = main([*cached, "--output", str(tmp_path / "resumed.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 cells, 1 executed, 1 cache hits" in out

        clean = tmp_path / "clean.json"
        assert main([*self.CELL_ARGS, "--output", str(clean)]) == 0
        capsys.readouterr()
        assert (tmp_path / "resumed.json").read_text() == clean.read_text()


def _live_session_members(sid):
    """Pids of the non-zombie processes in session *sid*."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        state, _ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        if state != "Z" and int(session) == sid:
            members.append(int(pid))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_killed_grid_leaves_no_worker_and_reruns_from_the_cache(tmp_path):
    """SIGKILL the ``bgpbench grid`` parent mid-run: its workers must
    not outlive it, and running the same command again serves every
    finished cell from the cache with byte-identical output."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    grid = [
        sys.executable, "-m", "repro.experiments.runner", "grid", "--workers", "2",
        "--scenarios", "1", "3", "--table-sizes", "1000",
    ]
    command = [*grid, "--cache-dir", str(tmp_path / "cache"),
               "--output", str(tmp_path / "rerun.json")]
    killed_after = 2

    parent = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    runs = 0
    for line in parent.stdout:
        runs += "[ run ]" in line
        if runs == killed_after:
            break
    parent.kill()
    parent.stdout.close()
    assert parent.wait() == -signal.SIGKILL
    deadline = time.monotonic() + 5.0
    while _live_session_members(parent.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = _live_session_members(parent.pid)
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []

    rerun = subprocess.run(command, capture_output=True, text=True, env=env)
    assert rerun.returncode == 0, rerun.stderr
    hits = int(re.search(r"(\d+) cache hits", rerun.stdout).group(1))
    assert hits >= killed_after, rerun.stdout

    clean = subprocess.run(
        [*grid, "--no-cache", "--output", str(tmp_path / "clean.json")],
        capture_output=True, text=True, env=env,
    )
    assert clean.returncode == 0, clean.stderr
    assert (tmp_path / "rerun.json").read_bytes() == (
        tmp_path / "clean.json"
    ).read_bytes()
