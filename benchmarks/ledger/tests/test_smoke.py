"""``run.py --smoke``: every metric BENCHMARK.json names, in seconds."""

import json
import re
import subprocess
import sys
import time

from conftest import LEDGER_DIR, REPO_ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_run_produces_every_named_metric(tmp_path):
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "ledger.json"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 20.0, f"smoke run took {elapsed:.1f} s"

    report = json.loads(out.read_text())["workloads"]
    assert set(report) == {workload["name"] for workload in benchmark["workloads"]}
    for name, workload in report.items():
        assert workload["failed"] == 0, workload["failures"]
        assert workload["probes_missing"] == [], name
        for metric in benchmark["end_to_end"]:
            entry = workload["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (name, metric["name"])
        for metric in benchmark["per_layer"]:
            assert NAME.fullmatch(metric["name"])
            assert workload["per_layer"][metric["name"]] is not None, (name, metric["name"])
        assert set(workload["per_layer"]) == {m["name"] for m in benchmark["per_layer"]}
        assert workload["per_layer"]["trace.unattributed_frac"] <= 0.2


def test_driver_line_under_workload_flag():
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke", "--workload",
         "paper_large_pkt", "--seed", "7", "--trace", "0"],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {"wall_s", "ops_per_s", "setup_s", "peak_rss_mb"}
