#!/usr/bin/env python3
"""The wall-clock ledger: host seconds per simulated cell, per layer.

    python benchmarks/ledger/run.py                       # all five workloads, untraced
    python benchmarks/ledger/run.py --workload topo_withdraw --trace
    python benchmarks/ledger/run.py --trace both --out benchmarks/ledger/BENCH_11.json
    python benchmarks/ledger/run.py --aa                  # same code twice: is it steady?
    python benchmarks/ledger/run.py --smoke               # tiny sizes, seconds (tests)

Each workload runs in its own fresh child interpreter (``worker.py``),
one at a time. This parent imports nothing from ``repro``: it times
fresh-interpreter imports, turns the children's raw timings into the
metrics ``BENCHMARK.json`` names, prints every metric with its unit,
and verifies the simulated outputs. With ``--workload`` the last line
of stdout is the one-object JSON result the benchmark driver reads.

Exit status: 0 when every simulated output verified (and, under
``--aa``, every pair of medians agreed within its bound); 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = LEDGER_DIR / ".work"
EXPECTED_PATH = LEDGER_DIR / "expected.json"

#: Fresh-interpreter imports timed before and again after each worker
#: for ``setup_s``: a noisy spell on a shared box lasts seconds, and the
#: median over both sides of the run outlasts it.
IMPORT_SAMPLES = 3
#: Traced repetitions per workload (after the untraced reference ones).
TRACED_REPS = 3
TRACE_REFERENCE_REPS = 2
#: Absolute room ``table3_err`` has over ``expected.json`` before the
#: run counts as failed: accuracy may not pay for simulator speed.
TABLE3_ERR_ROOM = 0.005
#: A time-boxed (--seconds) worker that has not answered by now is hung;
#: the driver allows a run 180 s.
WORKER_TIMEOUT_S = 170

_IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro.experiments.runner; print(time.perf_counter() - t)"
)


def load_benchmark() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def summary(values: "list[float]") -> dict:
    """Median with n, min, quartiles and max — how a timing is reported."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": statistics.median(values),
        "q3": q3,
        "max": max(values),
    }


def time_imports(samples: int) -> "list[float]":
    """Seconds a fresh interpreter spends importing the CLI's module."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", _IMPORT_SNIPPET, str(SRC_DIR)],
            capture_output=True, text=True, check=True, cwd=REPO_ROOT,
        ).stdout.strip())
        for _ in range(samples)
    ]


def run_worker(name: str, args: argparse.Namespace, work_dir: Path,
               repeats: int, seconds: float, traced_reps: int) -> dict:
    command = [
        sys.executable, str(LEDGER_DIR / "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--repeats", str(repeats), "--seconds", str(seconds),
        "--traced-reps", str(traced_reps),
        "--smoke", str(int(args.smoke)), "--work", str(work_dir),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, cwd=REPO_ROOT,
        timeout=WORKER_TIMEOUT_S if seconds else None,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker for {name} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def expected_for(raw: dict) -> "dict | None":
    try:
        expected = json.loads(EXPECTED_PATH.read_text())
    except (OSError, ValueError):
        return None
    profile = "smoke" if raw["smoke"] else "full"
    return expected.get(profile, {}).get(str(raw["seed"]), {}).get(raw["workload"])


def digest_metrics(raw: dict, import_timings: "list[float]", benchmark: dict) -> dict:
    """One workload's report: end-to-end metrics, information, verdicts."""
    wall = summary(raw["walls"])
    builders = summary(raw["setups"])
    imports = summary(import_timings)
    values = {
        "wall_s": wall["median"],
        "ops_per_s": raw["sim_ops"] / wall["median"],
        "setup_s": imports["median"] + builders["median"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    units = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]}
    failures = list(raw["failures"])
    expected = expected_for(raw)
    sim_changed = None if expected is None else (
        expected["result_digest"] != raw["result_digest"]
    )
    if raw["table3_err"] is not None and expected is not None:
        if raw["table3_err"] > expected["table3_err"] + TABLE3_ERR_ROOM:
            failures.append(
                f"table3_err {raw['table3_err']:.4f} exceeds expected "
                f"{expected['table3_err']:.4f} + {TABLE3_ERR_ROOM}"
            )
    report = {
        "end_to_end": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
        "timings": {"wall_s": wall, "builders_s": builders, "import_s": imports},
        "info": {
            "op": raw["op"],
            "sim_ops": raw["sim_ops"],
            "cells": raw["cells"],
            "result_digest": raw["result_digest"],
            "sim_changed": sim_changed,
            "table3_err": raw["table3_err"],
            "anchor_tps": raw.get("anchor_tps"),
        },
        "attempted": raw["attempted"],
        "failed": len(failures),
        "failed_frac": len(failures) / raw["attempted"],
        "failures": failures,
    }
    if raw["trace"] is not None:
        per_layer = dict(raw["trace"]["metrics"])
        per_layer["experiments.import_s"] = imports["median"]
        report["per_layer"] = per_layer
        report["probes_missing"] = raw["trace"]["probes_missing"]
        report["top_self_s"] = raw["trace"]["top_self_s"]
        report["chrome_trace"] = raw["trace"]["chrome_trace"]
        report["events_fired"] = per_layer.get("sim.engine.events")
    return report


def print_report(name: str, report: dict, benchmark: dict) -> None:
    info = report["info"]
    print(f"== {name}  ({info['sim_ops']} x {info['op']}, {info['cells']} cells)")
    wall = report["timings"]["wall_s"]
    for metric, entry in report["end_to_end"].items():
        print(f"  {metric:<14} {entry['value']:>12.4f} {entry['unit']}")
    print(
        f"  repetition wall: n={wall['n']} min={wall['min']:.4f} q1={wall['q1']:.4f} "
        f"median={wall['median']:.4f} q3={wall['q3']:.4f} max={wall['max']:.4f} s"
    )
    print(f"  failed_frac    {report['failed_frac']:>12.4f} "
          f"({report['failed']} of {report['attempted']})")
    if info["table3_err"] is not None:
        print(f"  table3_err     {info['table3_err']:>12.4f} mean |ln(sim/paper tps)|")
    print(f"  result_digest  {info['result_digest']}")
    if info["sim_changed"]:
        print("  sim_changed    simulated outputs differ from expected.json")
    elif info["sim_changed"] is None:
        print("  sim_changed    unknown (no expected.json entry for this seed)")
    for failure in report["failures"]:
        print(f"  FAILED  {failure}")
    if "per_layer" not in report:
        return
    units = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    print(f"  events_fired   {report['events_fired']}")
    for metric, value in report["per_layer"].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<34} {shown:>14} {units.get(metric, '')}")
    if report["probes_missing"]:
        print(f"  probes_missing {report['probes_missing']}")
    print(f"  chrome trace   {report['chrome_trace']}")


def run_suite(names: "list[str]", args: argparse.Namespace, benchmark: dict) -> dict:
    """Run the named workloads once each; ``{name: report}``."""
    samples = 1 if args.smoke else IMPORT_SAMPLES
    time_imports(1)  # untimed: compiles the byte code a user pays for once
    before = time_imports(samples)
    reports = {}
    for name in names:
        work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
        # A traced-only run needs just enough untraced repetitions to
        # state its own overhead; end-to-end numbers come from --trace 0.
        repeats = TRACE_REFERENCE_REPS if args.trace == "1" else args.repeats
        traced_reps = 0 if args.trace == "0" else TRACED_REPS
        raw = run_worker(name, args, work_dir, repeats, args.seconds, traced_reps)
        if raw["trace"] is not None:
            kept = WORK_ROOT / f"trace-{name}.json"
            shutil.move(raw["trace"]["chrome_trace"], kept)
            raw["trace"]["chrome_trace"] = str(kept.relative_to(REPO_ROOT))
        shutil.rmtree(work_dir, ignore_errors=True)
        after = time_imports(samples)
        reports[name] = digest_metrics(raw, before + after, benchmark)
        before = after
    return reports


def driver_line(report: dict, benchmark: dict, traced: bool) -> str:
    """The last line of stdout under ``--workload``."""
    if traced:
        metrics = {
            metric["name"]: {
                # A layer whose probe target is gone measured nothing.
                "value": report["per_layer"].get(metric["name"]) or 0,
                "unit": metric["unit"],
            }
            for metric in benchmark["per_layer"]
        }
    else:
        metrics = report["end_to_end"]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def compare_aa(first: dict, second: dict, benchmark: dict) -> bool:
    """Print both medians per workload x metric; True when all agree."""
    agreed = True
    print(f"{'workload':<20}{'metric':<14}{'first':>12}{'second':>12}{'worse by':>10}{'bound':>8}")
    for name in first:
        for metric in benchmark["end_to_end"]:
            a = first[name]["end_to_end"][metric["name"]]["value"]
            b = second[name]["end_to_end"][metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = abs(worse) <= metric["bound"]
            agreed &= ok
            print(
                f"{name:<20}{metric['name']:<14}{a:>12.4f}{b:>12.4f}"
                f"{worse:>+10.3f}{metric['bound']:>8.2f}{'' if ok else '  EXCEEDS'}"
            )
    return agreed


def bless(reports: dict, args: argparse.Namespace) -> None:
    try:
        expected = json.loads(EXPECTED_PATH.read_text())
    except (OSError, ValueError):
        expected = {}
    entry = expected.setdefault("smoke" if args.smoke else "full", {}).setdefault(
        str(args.seed), {}
    )
    for name, report in reports.items():
        entry[name] = {
            key: report["info"][key] for key in ("result_digest", "sim_ops", "table3_err")
        }
        report["info"]["sim_changed"] = False
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure for this long instead of --repeats")
    parser.add_argument("--trace", nargs="?", const="1", default=None,
                        choices=("0", "1", "both"),
                        help="1: per-layer traced run; both: untraced suite plus trace")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, untraced plus traced, for the tests")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced suite twice and compare medians")
    parser.add_argument("--out", help="write the full report here as JSON")
    parser.add_argument("--bless", action="store_true",
                        help="record this run's digests in expected.json")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"ledger: no simulator at {SRC_DIR}; nothing to measure", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    if args.trace is None:
        args.trace = "both" if args.smoke else "0"
    if args.repeats is None:
        args.repeats = 0 if args.seconds else (2 if args.smoke else 5)
    if args.aa:
        args.trace = "0"

    WORK_ROOT.mkdir(exist_ok=True)
    reports = run_suite(names, args, benchmark)
    if args.bless:
        bless(reports, args)
    for name, report in reports.items():
        print_report(name, report, benchmark)
    ok = all(report["failed"] == 0 for report in reports.values())
    if args.aa:
        second = run_suite(names, args, benchmark)
        ok &= all(report["failed"] == 0 for report in second.values())
        ok &= compare_aa(reports, second, benchmark)
    if args.out:
        payload = {
            "meta": {
                "seed": args.seed,
                "smoke": args.smoke,
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": f"{platform.system()}-{platform.machine()}",
            },
            "workloads": reports,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.workload is not None:
        print(driver_line(reports[args.workload], benchmark, traced=args.trace == "1"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
