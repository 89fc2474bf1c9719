#!/usr/bin/env python3
"""Compare two benchmark JSON files and flag regressions.

Usage:
    python3 bench/compare_bench.py BASELINE.json CANDIDATE.json \
        [--threshold 1.25] [--families acquisition,cholesky] [--strict]
    python3 bench/compare_bench.py --mode warmstart \
        BENCH_warmstart.json NEW_warmstart.json [--strict]
    python3 bench/compare_bench.py --mode fleet \
        FLEET_scaling.json NEW_fleet.json [--strict]

The default mode compares google-benchmark output. `--mode components`
is the same comparison hardened for the committed component baseline
(BENCH_components.json): the observation-window hot paths
(hyper-parameter probe, DES measure) join the watched families, and
a candidate produced by a non-Release build — a ".DEBUG"-stamped file
name or a `clite_build_type` context other than "release" — fails the
run outright instead of warning, so a debug JSON can never slip in as
the baseline. `--mode warmstart`
compares two bench/warm_start emissions (BENCH_warmstart.json)
instead: it checks that warm starts still converge no slower than the
committed baseline and that the exact-hit improvement over cold stays
above the floor the warm-start design promises (30% fewer windows).
`--mode fleet` compares two bench/fleet_scaling emissions
(FLEET_scaling.json): points are matched by (mode, nodes) across both
fleet schedules, final QoS-met fraction must not regress, ms/window
must stay within the threshold ratio, and at every node count with
both DES rows the coarse-search fleet must beat fine-mode on
ms/window while staying inside the 25% QoS accuracy band. The sweep
is deterministic apart from its timings, so its deterministic
findings (a QoS-met drop, a chaos sweep with zero retries, a coarse
row outside the QoS band) fail the run with or without --strict;
only the timing findings (the ms/window ratio, coarse not faster
than fine) wait for --strict. `--mode budget` compares two
bench/budget_sweep emissions (BENCH_budget.json): the budgeted
controller must keep reducing QoS-violating sample-seconds by at
least the design floor (30% vs the EI-threshold baseline) and its
final ground-truth score must stay within tolerance of the
baseline's. `--mode traffic` compares two bench/fig_traffic emissions
(BENCH_traffic.json): on the flash-crowd trace the transient-riding
policy must keep avoiding at least 50% of the naive arm's
re-optimizations while its violating-window fraction rises by at most
two points, and on every baseline shape (jittered-diurnal,
flash-crowd, composite) each arm's QoS-met fraction may fall, and its
violating fraction rise, by at most two points against the baseline;
a baseline shape missing from the candidate fails too.

Matches benchmarks by name, prints a ratio table (candidate / baseline
real time), and emits a warning for every benchmark in the watched
families whose time regressed by more than the threshold. Warnings use
GitHub Actions' `::warning::` syntax so they surface as annotations in
CI without failing the job — microbenchmark numbers from shared
runners are too noisy for a hard gate by default; pass --strict to
turn regressions into a nonzero exit instead.

Only needs the standard library (CI images have no pip step).
"""

import argparse
import json
import sys

# Benchmark-name substrings (lowercased) watched for regressions by
# default: the surrogate-maintenance and acquisition hot paths that
# docs/PERF.md tracks.
DEFAULT_FAMILIES = ["acquisition", "cholesky", "predictbatch"]

# Additional families `--mode components` watches: the observation-
# window pipeline (GP hyper-fit probes and the DES measurement) and the
# controller's acquisition phase (scalar posterior, projected-gradient
# ascent, a whole search).
COMPONENT_FAMILIES = DEFAULT_FAMILIES + ["hyperparameterprobe",
                                         "desmodelmeasure",
                                         "predictscalar",
                                         "projectedgradient",
                                         "clitefullsearch"]


def load_benchmarks(path):
    """Return {name: real_time_ns} for a google-benchmark JSON file."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            continue
        out[bench["name"]] = float(bench["real_time"]) * scale
    return out, data.get("context", {})


# Minimum acceptable exact-hit improvement over cold (fraction of
# windows saved); matches the warm-start design target in docs/STORE.md.
WARMSTART_IMPROVEMENT_FLOOR = 0.30


def compare_warmstart(args):
    """Diff two bench/warm_start JSON files (BENCH_warmstart.json)."""
    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.candidate) as f:
        cand = json.load(f)
    problems = []

    print(f"{'metric':<24}  {'base':>10}  {'cand':>10}")
    for key in ("cold_windows_mean", "exact_windows_mean",
                "similar_windows_mean", "exact_improvement",
                "similar_improvement"):
        b = base.get("overall", {}).get(key)
        c = cand.get("overall", {}).get(key)
        print(f"{key:<24}  {b!s:>10}  {c!s:>10}")

    improvement = cand.get("overall", {}).get("exact_improvement", 0.0)
    if improvement < WARMSTART_IMPROVEMENT_FLOOR:
        problems.append(
            f"exact-hit improvement {improvement:.2f} fell below the "
            f"{WARMSTART_IMPROVEMENT_FLOOR:.2f} floor")
    base_exact = base.get("overall", {}).get("exact_windows_mean")
    cand_exact = cand.get("overall", {}).get("exact_windows_mean")
    if base_exact and cand_exact and cand_exact > base_exact * args.threshold:
        problems.append(
            f"exact-hit windows regressed: {cand_exact} vs committed "
            f"{base_exact} (threshold {args.threshold:.2f}x)")

    for p in problems:
        print(f"::warning::warm-start regression: {p}")
    if problems:
        return 1 if args.strict else 0
    print("warm-start convergence matches the committed baseline")
    return 0


# Minimum acceptable reduction in QoS-violating sample-seconds of the
# budgeted arm over the EI-threshold baseline (fraction); matches the
# budget-policy design target in docs/BUDGET.md.
BUDGET_REDUCTION_FLOOR = 0.30

# Largest tolerated final ground-truth score deficit of the budgeted
# arm vs the baseline (Eq. 3 scale): "reached the same final score".
BUDGET_SCORE_GAP_TOLERANCE = 0.02


def compare_budget(args):
    """Diff two bench/budget_sweep JSON files (BENCH_budget.json)."""
    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.candidate) as f:
        cand = json.load(f)
    problems = []

    print(f"{'metric':<26}  {'base':>10}  {'cand':>10}")
    for key in ("baseline_violating_mean", "budget_violating_mean",
                "reduction", "score_gap", "budget_aborted_windows"):
        b = base.get("overall", {}).get(key)
        c = cand.get("overall", {}).get(key)
        print(f"{key:<26}  {b!s:>10}  {c!s:>10}")

    overall = cand.get("overall", {})
    reduction = overall.get("reduction", 0.0)
    if reduction < BUDGET_REDUCTION_FLOOR:
        problems.append(
            f"violating-seconds reduction {reduction:.2f} fell below "
            f"the {BUDGET_REDUCTION_FLOOR:.2f} floor")
    score_gap = overall.get("score_gap", 0.0)
    if score_gap > BUDGET_SCORE_GAP_TOLERANCE:
        problems.append(
            f"budgeted final score trails the baseline by "
            f"{score_gap:.4f} (> {BUDGET_SCORE_GAP_TOLERANCE} "
            f"tolerance): not reaching the same final score")
    base_vio = base.get("overall", {}).get("budget_violating_mean")
    cand_vio = overall.get("budget_violating_mean")
    if base_vio and cand_vio and cand_vio > base_vio * args.threshold:
        problems.append(
            f"budgeted violating seconds regressed: {cand_vio} vs "
            f"committed {base_vio} (threshold {args.threshold:.2f}x)")
    # The sweep must exercise the early-abort machinery it claims to
    # measure: zero aborted windows means the feature is dark.
    if overall.get("budget_aborted_windows", 0) <= 0:
        problems.append("budgeted sweep aborted zero windows: "
                        "early-abort looks disabled")

    for p in problems:
        print(f"::warning::budget regression: {p}")
    if problems:
        return 1 if args.strict else 0
    print("budget-bounded search matches the committed baseline")
    return 0


# Minimum acceptable fraction of naive re-optimizations the
# transient-riding policy avoids on the flash-crowd shape; matches the
# traffic-policy design target in docs/TRAFFIC.md.
TRAFFIC_REOPT_REDUCTION_FLOOR = 0.50

# Largest tolerated increase in the violating-window fraction the
# riding policy may pay for those avoided searches (absolute, on a
# [0, 1] fraction — 0.02 = two points). The per-shape check uses the
# same two points for each arm's drift against the baseline.
TRAFFIC_VIOLATING_INCREASE_TOLERANCE = 0.02


def traffic_shape_problems(base, cand):
    """Per-shape, per-arm QoS drift of a candidate against the baseline.

    Each arm's qos_met_fraction may not fall, and its
    violating_fraction may not rise, by more than
    TRAFFIC_VIOLATING_INCREASE_TOLERANCE; every baseline shape must be
    present in the candidate.
    """
    tol = TRAFFIC_VIOLATING_INCREASE_TOLERANCE
    cand_shapes = {s.get("shape"): s for s in cand.get("shapes", [])}
    problems = []
    print(f"\n{'shape':<18}  {'arm':<7}  {'qos_met':>17}  "
          f"{'violating':>17}")
    for b in base.get("shapes", []):
        name = b.get("shape")
        c = cand_shapes.get(name)
        if c is None:
            problems.append(f"shape {name} is missing from the candidate")
            continue
        for arm in ("naive", "riding"):
            qb = b.get(f"{arm}_qos_met_fraction", 0.0)
            qc = c.get(f"{arm}_qos_met_fraction", 0.0)
            vb = b.get(f"{arm}_violating_fraction", 0.0)
            vc = c.get(f"{arm}_violating_fraction", 1.0)
            print(f"{name:<18}  {arm:<7}  {qb:>7.4f} -> {qc:<7.4f}  "
                  f"{vb:>7.4f} -> {vc:<7.4f}")
            if qc < qb - tol:
                problems.append(
                    f"{name} {arm} arm's QoS-met fraction fell "
                    f"{qb:.4f} -> {qc:.4f} (> {tol} tolerance)")
            if vc > vb + tol:
                problems.append(
                    f"{name} {arm} arm's violating fraction rose "
                    f"{vb:.4f} -> {vc:.4f} (> {tol} tolerance)")
    return problems


def compare_traffic(args):
    """Diff two bench/fig_traffic JSON files (BENCH_traffic.json)."""
    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.candidate) as f:
        cand = json.load(f)
    problems = []

    print(f"{'metric':<26}  {'base':>10}  {'cand':>10}")
    for key in ("naive_reopts_mean", "riding_reopts_mean",
                "reopt_reduction", "violating_increase",
                "transients_ridden_mean"):
        b = base.get("flash_crowd", {}).get(key)
        c = cand.get("flash_crowd", {}).get(key)
        print(f"{key:<26}  {b!s:>10}  {c!s:>10}")

    flash = cand.get("flash_crowd", {})
    # The sweep must actually provoke the naive arm: a flash-crowd
    # trace that never triggers a search measures nothing.
    if flash.get("naive_reopts_mean", 0.0) <= 0.0:
        problems.append("naive arm ran zero re-optimizations: the "
                        "flash-crowd trace is not provoking searches")
    reduction = flash.get("reopt_reduction", 0.0)
    if reduction < TRAFFIC_REOPT_REDUCTION_FLOOR:
        problems.append(
            f"flash-crowd reopt reduction {reduction:.2f} fell below "
            f"the {TRAFFIC_REOPT_REDUCTION_FLOOR:.2f} floor")
    increase = flash.get("violating_increase", 0.0)
    if increase > TRAFFIC_VIOLATING_INCREASE_TOLERANCE:
        problems.append(
            f"riding policy's violating-window fraction rose by "
            f"{increase:.3f} (> "
            f"{TRAFFIC_VIOLATING_INCREASE_TOLERANCE} tolerance)")
    # Riding must be exercised, not merely configured: zero ridden
    # transients means the hysteresis is dark.
    if flash.get("transients_ridden_mean", 0.0) <= 0.0:
        problems.append("riding arm rode zero transients: the "
                        "RideTransients hysteresis looks disabled")
    problems += traffic_shape_problems(base, cand)

    for p in problems:
        print(f"::warning::traffic regression: {p}")
    if problems:
        return 1 if args.strict else 0
    print("traffic-policy sweep matches the committed baseline")
    return 0


# Absolute QoS-met-fraction drop (candidate vs baseline, per point)
# tolerated before a fleet point is flagged: placement is seeded but a
# changed controller legitimately shifts a window or two.
FLEET_QOS_TOLERANCE = 0.02

# Fleet rows faster than this (ms/window, baseline side) skip the
# ms/window ratio check: at sub-millisecond windows a 25% ratio is
# scheduler jitter, not signal (a 1-node lockstep row can swing
# 0.1 ms run to run). The QoS check still applies to every row.
FLEET_TIME_FLOOR_MS = 2.0

# Accuracy band for the coarse-search DES rows: the coarse fleet's
# final QoS-met fraction may differ from the fine-mode fleet at the
# same node count by at most this much (absolute, on a [0, 1]
# fraction) — the 25% p95 band docs/MODEL.md documents for the
# event-budgeted measurement.
FLEET_COARSE_QOS_BAND = 0.25


def compare_fleet(args):
    """Diff two bench/fleet_scaling JSON files (FLEET_scaling.json)."""
    def load_points(path):
        with open(path) as f:
            data = json.load(f)
        return {(p.get("mode", "lockstep"), p["nodes"]): p
                for p in data.get("points", [])}

    base = load_points(args.baseline)
    cand = load_points(args.candidate)
    common = sorted(set(base) & set(cand))
    if not common:
        print("::warning::no common (mode, nodes) fleet points between "
              f"{args.baseline} and {args.candidate}")
        return 1
    for key in sorted(set(base) - set(cand)):
        print(f"  (baseline only) {key[0]}@{key[1]} nodes")
    for key in sorted(set(cand) - set(base)):
        print(f"  (candidate only) {key[0]}@{key[1]} nodes")

    # Deterministic findings fail the run; timing findings (host
    # speed) fail only under --strict.
    problems = []
    timing = []
    print(f"{'point':<16}  {'qos base':>9}  {'qos cand':>9}  "
          f"{'ms base':>9}  {'ms cand':>9}  ratio")
    for key in common:
        b, c = base[key], cand[key]
        label = f"{key[0]}@{key[1]}"
        qos_b = b.get("qos_met_final", 0.0)
        qos_c = c.get("qos_met_final", 0.0)
        ms_b = b.get("ms_per_window", 0.0)
        ms_c = c.get("ms_per_window", 0.0)
        ratio = ms_c / ms_b if ms_b > 0 else float("inf")
        flag = ""
        if qos_c < qos_b - FLEET_QOS_TOLERANCE:
            problems.append(
                f"{label}: final QoS-met fell {qos_b:.3f} -> {qos_c:.3f}")
            flag = "  <-- QOS"
        if ratio > args.threshold and ms_b >= FLEET_TIME_FLOOR_MS:
            timing.append(
                f"{label}: ms/window is {ratio:.2f}x the baseline "
                f"(threshold {args.threshold:.2f}x)")
            flag += "  <-- TIME"
        print(f"{label:<16}  {qos_b:>9.3f}  {qos_c:>9.3f}  "
              f"{ms_b:>9.2f}  {ms_c:>9.2f}  {ratio:5.2f}{flag}")

    # Coarse-search gate: wherever the sweep measured both DES rows at
    # a node count, coarse search probes must actually buy wall time —
    # ms/window strictly below the fine-mode row — while the final
    # QoS-met fraction stays inside the documented accuracy band. The
    # gate runs on the candidate alone so a regenerated baseline can
    # never grandfather in a coarse mode that stopped paying off.
    des_nodes = sorted(n for (m, n) in cand
                       if m == "async-des-fine"
                       and ("async-des-coarse", n) in cand)
    base_des = sorted({k for k in base
                       if k[0] in ("async-des-fine", "async-des-coarse")})
    if base_des and not des_nodes:
        problems.append("baseline has DES coarse/fine fleet rows but "
                        "the candidate measured none")
    for n in des_nodes:
        fine = cand[("async-des-fine", n)]
        coarse = cand[("async-des-coarse", n)]
        ms_f = fine.get("ms_per_window", 0.0)
        ms_c = coarse.get("ms_per_window", 0.0)
        if ms_f <= 0 or ms_c >= ms_f:
            timing.append(
                f"async-des@{n}: coarse search is not faster than fine "
                f"({ms_c:.2f} vs {ms_f:.2f} ms/window)")
        else:
            print(f"  coarse win @{n} nodes: {ms_f:.2f} -> {ms_c:.2f} "
                  f"ms/window ({ms_f / ms_c:.2f}x)")
        qos_gap = abs(coarse.get("qos_met_final", 0.0)
                      - fine.get("qos_met_final", 0.0))
        if qos_gap > FLEET_COARSE_QOS_BAND:
            problems.append(
                f"async-des@{n}: coarse QoS-met strays {qos_gap:.3f} "
                f"from fine-mode (band {FLEET_COARSE_QOS_BAND:.2f})")

    # The async engine's robustness counters must show the chaos was
    # absorbed, not absent: the sweep injects worker churn, so a
    # candidate with zero retries is not running the chaos it claims.
    async_points = [cand[k] for k in cand if k[0] == "async"]
    if async_points and not any(p.get("tasks_retried", 0) > 0
                                for p in async_points):
        problems.append("async sweep shows zero retries: fault "
                        "injection looks disabled")

    for p in problems:
        print(f"::error::fleet regression: {p}")
    for p in timing:
        print(f"::warning::fleet timing regression: {p}")
    if problems or (timing and args.strict):
        return 1
    print("fleet scaling matches the committed baseline "
          f"({len(common)} points"
          f"{', timing findings above' if timing else ''})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="warn when candidate/baseline exceeds this "
                             "(default 1.25 = 25%% slower)")
    parser.add_argument("--families", default=",".join(DEFAULT_FAMILIES),
                        help="comma-separated name substrings to watch "
                             "(case-insensitive)")
    parser.add_argument("--mode",
                        choices=["benchmark", "components", "warmstart",
                                 "fleet", "budget", "traffic"],
                        default="benchmark",
                        help="input format: google-benchmark JSON "
                             "(default; 'components' adds the "
                             "observation-window families and makes a "
                             "non-Release candidate a hard error), "
                             "bench/warm_start JSON, "
                             "bench/fleet_scaling JSON, "
                             "bench/budget_sweep JSON, or "
                             "bench/fig_traffic JSON")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any watched family regresses")
    args = parser.parse_args()

    if args.mode == "warmstart":
        return compare_warmstart(args)
    if args.mode == "fleet":
        return compare_fleet(args)
    if args.mode == "budget":
        return compare_budget(args)
    if args.mode == "traffic":
        return compare_traffic(args)
    if (args.mode == "components"
            and args.families == ",".join(DEFAULT_FAMILIES)):
        args.families = ",".join(COMPONENT_FAMILIES)

    base, base_ctx = load_benchmarks(args.baseline)
    cand, cand_ctx = load_benchmarks(args.candidate)
    families = [f.strip().lower() for f in args.families.split(",")
                if f.strip()]

    for label, ctx, path in (("baseline", base_ctx, args.baseline),
                             ("candidate", cand_ctx, args.candidate)):
        build = ctx.get("clite_build_type")
        debug_named = ".DEBUG" in path
        if args.mode == "components" and (debug_named or
                                          (build and build != "release")):
            # A debug-stamped or debug-built JSON can never serve as
            # (or be compared against) the committed component
            # baseline: fail loudly, --strict or not.
            print(f"::error::{label} {path} is not a Release "
                  f"components baseline (clite_build_type="
                  f"{build or 'missing'}"
                  f"{', .DEBUG-stamped name' if debug_named else ''})")
            return 1
        if build and build != "release":
            print(f"::warning::{label} benchmark JSON came from a "
                  f"'{build}' build of clite; ratios are unreliable")

    common = sorted(set(base) & set(cand))
    if not common:
        print("::warning::no common benchmark names between "
              f"{args.baseline} and {args.candidate}")
        return 1

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    for name in only_base:
        print(f"  (baseline only) {name}")
    for name in only_cand:
        print(f"  (candidate only) {name}")

    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'base':>12}  {'cand':>12}  ratio")
    regressions = []
    for name in common:
        ratio = cand[name] / base[name] if base[name] > 0 else float("inf")
        watched = any(f in name.lower() for f in families)
        flag = ""
        if watched and ratio > args.threshold:
            regressions.append((name, ratio))
            flag = "  <-- REGRESSION"
        print(f"{name:<{width}}  {base[name]:>10.0f}ns  "
              f"{cand[name]:>10.0f}ns  {ratio:5.2f}{flag}")

    for name, ratio in regressions:
        print(f"::warning::perf regression: {name} is {ratio:.2f}x the "
              f"committed baseline (threshold {args.threshold:.2f}x)")
    if regressions:
        print(f"{len(regressions)} regression(s) in watched families "
              f"({', '.join(families)})", file=sys.stderr)
        return 1 if args.strict else 0
    print("no regressions above "
          f"{args.threshold:.2f}x in watched families")
    return 0


if __name__ == "__main__":
    sys.exit(main())
