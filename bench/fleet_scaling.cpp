/**
 * @file
 * Fleet scaling sweep: QoS-met fraction, BG performance and
 * scheduling activity as the cluster grows — on both fleet schedules.
 *
 * Every fleet size runs the same admission pressure per node (two
 * jobs per node, ~60% latency-critical, including a slice of hot
 * full-load tenants that are infeasible wherever they are
 * co-located), so the sweep isolates the effect of scale on the
 * scheduler: more nodes mean more rescheduling destinations and a
 * better chance of absorbing an unservable-in-place job.
 *
 * Two modes run side by side:
 *
 *  - **lockstep** (Fleet::tick): one fault-free engine epoch per
 *    window, a barrier at its end, swept to 64 nodes.
 *  - **async** (a long-lived AsyncFleetEngine): jittered durations
 *    with the default chaos (stragglers + hedging) plus a 5%
 *    worker-loss rate, swept to 1024 nodes — no barrier, so one slow
 *    node never stalls the fleet, and the robustness counters
 *    (retries, hedges, quarantines, sheds) are reported per point.
 *
 * Wall time per window runs node steps on the global thread pool
 * (--threads=N, bit-identical results at any worker count).
 *
 * With CLITE_FLEET_JSON=<path> the per-size series is also written as
 * JSON (like BENCH_components.json for the component benchmarks), so
 * scaling regressions are visible across commits
 * (bench/compare_bench.py --mode fleet). Its context block records
 * what the timings were taken on: the machine's CPU count, the pool's
 * thread count, the build type and the compiler.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench_util.h"
#include "cluster/fleet.h"
#include "cluster/manager.h"
#include "common/table.h"
#include "workloads/catalog.h"

using namespace clite;

namespace {

struct ScalePoint
{
    const char* mode = "lockstep";
    int nodes = 0;
    int jobs = 0;
    double qos_met_mean = 0.0;
    double qos_met_final = 0.0;
    double bg_perf_final = 0.0;
    int evictions = 0;
    int parked = 0;
    int pending = 0;
    double ms_per_window = 0.0;
    // Robustness counters (async mode; zero under lockstep).
    uint64_t retried = 0;
    uint64_t hedges_won = 0;
    uint64_t workers_lost = 0;
    uint64_t quarantined = 0;
    uint64_t dropped = 0;
};

cluster::FleetOptions
fleetOptions(int nodes)
{
    cluster::FleetOptions options;
    options.nodes = nodes;
    options.seed = 29;
    // Modest per-node search budgets: the sweep measures the fleet
    // layer, not per-node search quality.
    options.clite.max_iterations = 8;
    options.clite.acquisition_starts = 2;
    return options;
}

/** Admit this window's slice of the arrival schedule. */
int
admitWindow(cluster::Fleet& fleet, int w, int windows, int total_jobs,
            int admitted)
{
    const std::vector<std::string>& lc = workloads::lcWorkloadNames();
    const std::vector<std::string>& bg = workloads::bgWorkloadNames();
    int target = std::min(total_jobs,
                          (w + 1) * (2 * total_jobs / windows + 1));
    for (; admitted < target; ++admitted) {
        if (admitted % 10 == 9)
            fleet.admit(workloads::lcJob("masstree", 1.0));
        else if (admitted % 3 == 2)
            fleet.admit(workloads::bgJob(bg[size_t(admitted) % bg.size()]));
        else
            fleet.admit(workloads::lcJob(
                lc[size_t(admitted) % lc.size()], 0.3));
    }
    return admitted;
}

ScalePoint
runLockstep(int nodes, int windows)
{
    cluster::Fleet fleet(fleetOptions(nodes));
    const int total_jobs = nodes * 2;

    int admitted = 0;
    auto start = std::chrono::steady_clock::now();
    for (int w = 0; w < windows; ++w) {
        admitted = admitWindow(fleet, w, windows, total_jobs, admitted);
        fleet.tick();
    }
    auto elapsed = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - start);

    cluster::FleetSummary s = fleet.summarize();
    ScalePoint p;
    p.mode = "lockstep";
    p.nodes = nodes;
    p.jobs = admitted;
    p.qos_met_mean = s.qos_met_fraction.mean();
    p.qos_met_final = fleet.history().back().qos_met_fraction;
    p.bg_perf_final = fleet.history().back().mean_bg_perf;
    p.evictions = s.evictions;
    p.parked = s.jobs_parked;
    p.pending = s.jobs_pending;
    p.ms_per_window = elapsed.count() / windows;
    return p;
}

/**
 * @param backend Per-node model backend. The DES rows measure the
 *     simulated-event bill directly, so they are where the coarse
 *     search budget (FleetOptions::search_event_budget) shows up as
 *     an end-to-end windows/s win; the analytic rows keep the
 *     historical sweep comparable across commits.
 * @param search_event_budget DES search probe budget (0 = fine-mode
 *     searches; ignored by the analytic backend).
 * @param mode Row label; (mode, nodes) keys the compare_bench gate.
 */
ScalePoint
runAsync(int nodes, int windows,
         harness::ModelBackend backend = harness::ModelBackend::Analytic,
         uint64_t search_event_budget = 0, const char* mode = "async")
{
    cluster::FleetOptions options = fleetOptions(nodes);
    options.backend = backend;
    options.search_event_budget = search_event_budget;
    cluster::Fleet fleet(options);
    const int total_jobs = nodes * 2;

    cluster::AsyncOptions ao;
    // The logical worker pool scales with the fleet; chaos on: default
    // stragglers + hedging, plus worker churn worth recovering from.
    ao.workers = std::max(4, nodes / 4);
    ao.max_retries = 6;
    ao.faults.worker_loss_prob = 0.05;
    ao.fault_seed = 29;
    cluster::AsyncFleetEngine engine(fleet, ao);

    // Same admission cadence as lockstep: one arrival slice, then one
    // observation window per node (run(1) == the async tick analogue).
    int admitted = 0;
    auto start = std::chrono::steady_clock::now();
    for (int w = 0; w < windows; ++w) {
        admitted = admitWindow(fleet, w, windows, total_jobs, admitted);
        engine.run(1);
    }
    auto elapsed = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - start);

    cluster::FleetSummary s = fleet.summarize();
    const cluster::FleetMetrics& m = engine.metrics();
    ScalePoint p;
    p.mode = mode;
    p.nodes = nodes;
    p.jobs = admitted;
    p.qos_met_mean = engine.qosHistory().mean();
    p.qos_met_final = engine.qosMetFraction();
    p.bg_perf_final = engine.meanBgPerf();
    p.evictions = s.evictions;
    p.parked = s.jobs_parked;
    p.pending = s.jobs_pending;
    p.ms_per_window = elapsed.count() / windows;
    p.retried = m.tasks_retried;
    p.hedges_won = m.hedges_won;
    p.workers_lost = m.workers_lost;
    p.quarantined = m.nodes_quarantined;
    p.dropped = m.windows_dropped;
    return p;
}

void
maybeWriteJson(const std::vector<ScalePoint>& points)
{
    const char* path = std::getenv("CLITE_FLEET_JSON");
    if (path == nullptr || *path == '\0')
        return;
    std::ofstream out(path);
    out << "{\n  \"benchmark\": \"fleet_scaling\",\n"
        << "  \"context\": {\"num_cpus\": "
        << std::thread::hardware_concurrency()
        << ", \"threads\": " << globalPool().threadCount()
        << ", \"build_type\": \"" << CLITE_BUILD_TYPE
        << "\", \"compiler\": \"" << CLITE_COMPILER << "\"},\n"
        << "  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        const ScalePoint& p = points[i];
        char buf[768];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"mode\": \"%s\", \"nodes\": %d, \"jobs\": %d, "
            "\"qos_met_mean\": %.6f, \"qos_met_final\": %.6f, "
            "\"bg_perf_final\": %.6f, \"evictions\": %d, \"parked\": %d, "
            "\"pending\": %d, \"ms_per_window\": %.3f, "
            "\"tasks_retried\": %llu, \"hedges_won\": %llu, "
            "\"workers_lost\": %llu, \"nodes_quarantined\": %llu, "
            "\"windows_dropped\": %llu}%s\n",
            p.mode, p.nodes, p.jobs, p.qos_met_mean, p.qos_met_final,
            p.bg_perf_final, p.evictions, p.parked, p.pending,
            p.ms_per_window, (unsigned long long)p.retried,
            (unsigned long long)p.hedges_won,
            (unsigned long long)p.workers_lost,
            (unsigned long long)p.quarantined,
            (unsigned long long)p.dropped,
            i + 1 < points.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    std::cout << "[json written to " << path << "]\n";
}

} // namespace

int
main(int argc, char** argv)
{
    bench::applyThreadFlag(argc, argv);
    printBanner(std::cout,
                "Fleet scaling: QoS-met fraction vs node count "
                "(2 jobs/node, 10% hot tenants; lockstep vs async)");

    const int windows = 12;
    std::vector<ScalePoint> points;
    for (int nodes : {1, 2, 4, 8, 16, 32, 64})
        points.push_back(runLockstep(nodes, windows));
    for (int nodes : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
        points.push_back(runAsync(nodes, windows));
    // DES rows: same fleet under the event-billed backend, fine-mode
    // searches vs the coarse default — the end-to-end windows/s win
    // of coarse search probes at fleet scale (gated by
    // compare_bench.py --mode fleet).
    for (int nodes : {256, 1024}) {
        points.push_back(runAsync(nodes, windows,
                                  harness::ModelBackend::Des, 0,
                                  "async-des-fine"));
        points.push_back(runAsync(nodes, windows,
                                  harness::ModelBackend::Des, 2000,
                                  "async-des-coarse"));
    }

    TextTable t({"Mode", "Nodes", "Jobs", "QoS met (mean)",
                 "QoS met (final)", "BG perf (final)", "Evict", "Parked",
                 "Pending", "ms/window", "Retried", "HedgeW", "WLost",
                 "Quar", "Shed"});
    for (const ScalePoint& p : points)
        t.addRow({p.mode, std::to_string(p.nodes), std::to_string(p.jobs),
                  TextTable::percent(p.qos_met_mean, 1),
                  TextTable::percent(p.qos_met_final, 1),
                  TextTable::num(p.bg_perf_final, 3),
                  std::to_string(p.evictions), std::to_string(p.parked),
                  std::to_string(p.pending),
                  TextTable::num(p.ms_per_window, 1),
                  std::to_string(p.retried),
                  std::to_string(p.hedges_won),
                  std::to_string(p.workers_lost),
                  std::to_string(p.quarantined),
                  std::to_string(p.dropped)});
    t.print(std::cout);
    bench::maybeWriteCsv(t, "fleet_scaling");
    maybeWriteJson(points);

    std::cout << "\nLarger fleets give evicted jobs more landing spots: "
                 "the final QoS-met fraction should not degrade with "
                 "node count in either mode, and the async engine must "
                 "absorb its injected worker churn (retries > 0, zero "
                 "lost jobs) without giving up QoS.\n";
    return 0;
}
