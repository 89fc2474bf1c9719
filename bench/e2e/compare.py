#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py A B

A (the parent) and B (the change) are each a results JSON written by
run.py, or a directory of them. Runs are paired in file-name order, so
write them alternating parent/change (A/01.json, B/01.json, ...).

For every workload in the sets and every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles and one
verdict:

  REGRESSION  B's median is worse than A's by more than the bound
  unresolved  a side's quartile spread exceeds the bound, and B does not
              read better than A in every run
  gain        B wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than A's spread
  ok          none of the above

fail_frac (failed / attempted) may not rise at all. The quality metrics
repeat exactly for a given seed and code, so for runs of equal seeds
they are also reported as identical or changed.

Exit status: 1 on any REGRESSION or higher fail_frac, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
QUALITY = ["qos_met_frac", "bg_perf", "violating_window_frac",
           "windows_per_search", "windows_to_qos"]


def load_sets(path):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    sets = []
    for f in files:
        doc = json.loads(f.read_text())
        if "workloads" in doc:
            sets.append(doc)
    if not sets:
        raise SystemExit(f"compare.py: no result sets in {path}")
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values(sets, workload, metric):
    out = []
    for s in sets:
        m = s["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def verdict(a, b, bound, lower_better):
    """Classify one metric from its two samples."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)

    def better(x, y):  # x reads better than y
        return x < y if lower_better else x > y

    worse = (b_med - a_med) if lower_better else (a_med - b_med)
    worse_share = worse / abs(a_med) if a_med else (0.0 if worse <= 0
                                                    else float("inf"))
    a_spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    b_spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    all_better = all(better(y, x) for x in a for y in b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))

    if max(a_spread, b_spread) > bound and not all_better:
        status = "unresolved"
    elif worse_share > bound:
        status = "REGRESSION"
    elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
          and abs(b_med - a_med) > (a_q3 - a_q1)):
        status = "gain"
    else:
        status = "ok"
    return status, (a_q1, a_med, a_q3), (b_q1, b_med, b_q3), worse_share


def fail_frac(sets, workload):
    attempted = failed = 0
    for s in sets:
        r = s["workloads"].get(workload)
        if r is not None:
            attempted += r["attempted"]
            failed += r["failed"]
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(
        description="Compare parent (A) and change (B) result sets.")
    parser.add_argument("a", help="parent results JSON or directory")
    parser.add_argument("b", help="change results JSON or directory")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_sets, b_sets = load_sets(args.a), load_sets(args.b)
    # BENCHMARK.json's workloads first, then any other the sets hold
    # (a suite run also measures fleet-steady-1k).
    workloads = [w["name"] for w in bench["workloads"]]
    for s in a_sets + b_sets:
        workloads += [w for w in s["workloads"] if w not in workloads]
    same_seeds = ([s["context"]["seed"] for s in a_sets] ==
                  [s["context"]["seed"] for s in b_sets])

    failures = 0
    print(f"A: {len(a_sets)} set(s) from {args.a}; "
          f"B: {len(b_sets)} set(s) from {args.b}")
    if any(s["context"].get("kind") != "untraced" for s in a_sets + b_sets):
        print("warning: traced sets included; their host times contain "
              "the tracing")
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':24s} {'unit':9s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'worse':>8s} {'bound':>6s}  "
              "verdict")
        for m in bench["end_to_end"]:
            a = values(a_sets, workload, m["name"])
            b = values(b_sets, workload, m["name"])
            if not a or not b:
                print(f"  {m['name']:24s} missing on one side")
                failures += 1
                continue
            status, aq, bq, worse = verdict(
                a, b, m["bound"], m["better"] == "lower")
            if status == "REGRESSION":
                failures += 1
            fmt = "{1:11.5g} [{0:9.4g}, {2:9.4g}]"
            print(f"  {m['name']:24s} {m['unit']:9s} {fmt.format(*aq):>34s} "
                  f"{fmt.format(*bq):>34s} {worse:+8.2%} {m['bound']:6.2f}  "
                  f"{status}")
        fa, fb = fail_frac(a_sets, workload), fail_frac(b_sets, workload)
        fail_status = "REGRESSION" if fb > fa else "ok"
        if fb > fa:
            failures += 1
        print(f"  {'fail_frac':24s} {'fraction':9s} {fa:34.4g} {fb:34.4g} "
              f"{'':8s} {0:6.2f}  {fail_status}")
        if same_seeds:
            changed = [q for q in QUALITY
                       if values(a_sets, workload, q) !=
                       values(b_sets, workload, q)]
            print("  quality metrics (same seeds): " +
                  ("identical" if not changed
                   else "changed: " + ", ".join(changed)))
    print("\n" + ("no regression" if failures == 0
                  else f"{failures} regression(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
