#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One workload, as BENCHMARK.json's command runs it (the last stdout line
is the result JSON; --trace 1 reports the per-layer metrics instead of
the end-to-end ones):

    python3 bench/e2e/run.py --workload node-search --seed 3 \
        --seconds 30 --trace 0

All four workloads, each in its own process, printing every end-to-end
metric with its unit and writing one results JSON:

    python3 bench/e2e/run.py [--seed N] [--out FILE]
    python3 bench/e2e/run.py --traced [--out FILE]   # + gzipped Chrome traces
    python3 bench/e2e/run.py --smoke                 # correctness gate

The project is configured and built in Release into build-e2e/ at the
repository root. Every result records nproc, threads, compiler, build
type and the git commit.
"""

import argparse
import gzip
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "clite_e2e"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ["node-search", "fleet-diurnal", "fleet-diurnal-async",
             "fleet-steady-1k"]
# The global pool is fixed at half of the 4-core reference box, so that
# the numbers measure the program rather than the host scheduler.
THREADS = 2
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170
# Every end-to-end metric a suite run prints, in print order.
SUITE_METRICS = ["setup_s", "step_ms_p50", "step_ms_p90", "steps",
                 "node_windows_per_s", "peak_rss_mb", "qos_met_frac",
                 "bg_perf", "violating_window_frac", "windows_to_qos",
                 "windows_per_search", "fail_frac"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (first time) and build; raise BenchError on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_driver(workload, seed, seconds, trace_path=None, gate=False):
    """Run clite_e2e once and return its result object."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--threads={THREADS}", f"--seconds={seconds}"]
    if trace_path is not None:
        cmd.append(f"--trace={trace_path}")
    if gate:
        cmd.append("--gate")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: driver timed out")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(proc.stderr[-4000:])
        raise BenchError(f"{workload}: driver exited {proc.returncode} "
                         "without a result")
    if proc.returncode != 0 or not result.get("correct"):
        raise BenchError(f"{workload}: incorrect output "
                         f"(exit {proc.returncode}): "
                         f"{result.get('error', proc.stderr[-2000:])}")
    return result


def check_result(result, names, section):
    """Every named metric is present, finite and within its range."""
    metrics = result[section]
    for name in names:
        if name not in metrics:
            raise BenchError(f"{result['workload']}: missing {name}")
        value = metrics[name]["value"]
        if not math.isfinite(value) or value < 0:
            raise BenchError(f"{result['workload']}: {name} = {value}")
        if metrics[name]["unit"] == "fraction" and value > 1:
            raise BenchError(f"{result['workload']}: {name} = {value} > 1")
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        raise BenchError(f"{result['workload']}: bad attempted/failed")


def context(seed, seconds, kind):
    return {"kind": kind, "git_sha": git_sha(), "nproc": os.cpu_count(),
            "threads": THREADS, "seed": seed, "seconds": seconds,
            "date": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def single_run(args, bench):
    """One workload; the last stdout line is the result JSON."""
    section = "layers" if args.trace else "metrics"
    names = [m["name"] for m in
             bench["per_layer" if args.trace else "end_to_end"]]
    trace_path = None
    if args.trace:
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = BUILD / "traces" / f"{args.workload}.trace.json"
    result = run_driver(args.workload, args.seed, args.seconds, trace_path)
    check_result(result, names, section)
    log(f"{args.workload}: {result['steps']} steps")
    metrics = {n: result[section][n] for n in names}
    for name, m in metrics.items():
        print(f"{args.workload:20s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def smoke_run(args):
    """The correctness gate on every workload."""
    start = time.monotonic()
    for workload in WORKLOADS:
        result = run_driver(workload, args.seed, args.seconds, gate=True)
        print(f"{workload:20s} gate {result['gate']} "
              f"(digest {result['digest']} at 1 and {THREADS} threads)")
    print(f"smoke passed in {time.monotonic() - start:.1f} s")


def suite_run(args, bench):
    """Every workload in its own process; one results JSON."""
    kind = "traced" if args.traced else "untraced"
    out = Path(args.out) if args.out else (
        BUILD / "results" / f"{kind}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"context": context(args.seed, args.seconds, kind), "workloads": {}}
    for workload in WORKLOADS:
        trace_path = None
        if args.traced:
            trace_path = out.with_name(f"{out.stem}.{workload}.trace.json")
        result = run_driver(workload, args.seed, args.seconds, trace_path)
        if args.traced:
            check_result(result, [m["name"] for m in bench["per_layer"]],
                         "layers")
            # Kept gzip-compressed: a traced set is a few MB of JSON.
            with open(trace_path, "rb") as src, gzip.GzipFile(
                    f"{trace_path}.gz", "wb", mtime=0) as dst:
                shutil.copyfileobj(src, dst)
            trace_path.unlink()
        check_result(result, [m["name"] for m in bench["end_to_end"]],
                     "metrics")
        doc["workloads"][workload] = result
        doc["context"].update(compiler=result["compiler"],
                              build_type=result["build_type"],
                              nproc=result["nproc"])
        print(f"\n{workload} ({result['steps']} steps, "
              f"{result['attempted']} attempted, {result['failed']} failed)")
        if args.traced:
            print("  (traced run: its host times include the tracing; "
                  "take them from an untraced set)")
        for name in SUITE_METRICS:
            m = result["metrics"].get(name)
            shown = f"{m['value']:14.6g} {m['unit']}" if m else "           n/a"
            print(f"  {name:28s} {shown}")
        if args.traced:
            for name, m in sorted(result["layers"].items()):
                print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"\nresults written to {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (BENCHMARK.json mode)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: traced run with Chrome traces")
    parser.add_argument("--smoke", action="store_true",
                        help="run the correctness gate on every workload")
    parser.add_argument("--out", help="suite mode: results JSON path")
    args = parser.parse_args()
    try:
        bench = json.loads(BENCHMARK.read_text())
        if args.seconds is None:
            args.seconds = int(bench["run_seconds"])
        build()
        if args.smoke:
            smoke_run(args)
        elif args.workload:
            single_run(args, bench)
        else:
            suite_run(args, bench)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
