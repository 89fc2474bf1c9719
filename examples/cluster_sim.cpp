/**
 * @file
 * Scenario: a small cluster, not just one node.
 *
 * Runs a 4-node Fleet through a job-arrival trace: latency-critical
 * and batch jobs stream in, the ClusterScheduler places each on the
 * least-loaded node with room, every node's OnlineManager partitions
 * its own resources with CLITE, and jobs a node proves infeasible
 * (QoS missed even at the max-allocation extremum) are evicted and
 * rescheduled onto nodes that still have room. Prints one line per
 * window plus a final fleet summary; the QoS and BG columns count
 * every admitted job, so a queued or parked job reads as a miss.
 *
 * A second act replays the same arrival trace through the async
 * manager-worker engine with faults injected — lost workers, task
 * failures, stragglers — and prints the robustness counters showing
 * the chaos being absorbed without losing a job.
 *
 * Flags:
 *   --trace=none|diurnal|flash|composite   drive the first LC job's
 *       load from a workloads/traffic generator during the async act
 *   --trace-seed=N    seed of the traffic generator (default 42)
 *   --policy=immediate|ride   per-node reoptimization policy
 */

#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "cluster/fleet.h"
#include "cluster/manager.h"
#include "common/error.h"
#include "harness/mix_parser.h"
#include "workloads/catalog.h"
#include "workloads/traffic/traffic.h"

namespace {

std::unique_ptr<clite::workloads::LoadTrace>
makeTrace(const std::string& kind, uint64_t seed)
{
    using namespace clite::workloads::traffic;
    if (kind == "none")
        return nullptr;
    if (kind == "diurnal") {
        JitteredDiurnalTrace::Options o;
        o.base = 0.5;
        o.amplitude = 0.25;
        o.period_seconds = 30.0;
        o.jitter_interval_s = 2.0;
        return std::make_unique<JitteredDiurnalTrace>(seed, o);
    }
    SurgeProcess::Options so;
    so.horizon_seconds = 60.0;
    so.mean_interarrival_s = 12.0;
    so.decay_seconds = 4.0;
    so.mean_magnitude = 0.35;
    if (kind == "flash")
        return std::make_unique<FlashCrowdTrace>(seed, 0.4, so);
    if (kind == "composite") {
        JitteredDiurnalTrace::Options d;
        d.base = 0.4;
        d.amplitude = 0.2;
        d.period_seconds = 30.0;
        d.jitter_interval_s = 2.0;
        std::vector<CompositeTrace::Component> parts;
        parts.push_back(
            {std::make_shared<JitteredDiurnalTrace>(seed, d), 1.0});
        parts.push_back(
            {std::make_shared<FlashCrowdTrace>(seed + 17, 0.01, so), 1.0});
        return std::make_unique<CompositeTrace>(std::move(parts));
    }
    std::cerr << "unknown --trace kind '" << kind
              << "' (none|diurnal|flash|composite)\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace clite;

    std::string trace_kind = "none";
    std::string policy = "immediate";
    uint64_t trace_seed = 42;
    try {
        for (int i = 1; i < argc; ++i) {
            if (std::strncmp(argv[i], "--trace=", 8) == 0)
                trace_kind = argv[i] + 8;
            else if (std::strncmp(argv[i], "--trace-seed=", 13) == 0)
                trace_seed = harness::parseSeed(argv[i] + 13);
            else if (std::strncmp(argv[i], "--policy=", 9) == 0)
                policy = argv[i] + 9;
        }
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    cluster::FleetOptions options;
    options.nodes = 4;
    options.seed = 11;
    if (policy == "ride") {
        options.monitor.reopt_policy = core::ReoptPolicy::RideTransients;
        options.monitor.transient_ride_windows = 3;
    } else if (policy != "immediate") {
        std::cerr << "unknown --policy '" << policy
                  << "' (immediate|ride)\n";
        return 2;
    }
    cluster::Fleet fleet(options);

    // The arrival trace: window -> jobs submitted at its start. Loads
    // are high enough that the fleet has to spread LC jobs out (one
    // node cannot hold them all and keep QoS).
    struct Arrival
    {
        int window;
        workloads::JobSpec spec;
    };
    const std::vector<Arrival> arrivals = {
        {1, workloads::lcJob("memcached", 0.6)},
        {1, workloads::bgJob("freqmine")},
        {2, workloads::lcJob("xapian", 0.5)},
        {3, workloads::lcJob("img-dnn", 0.5)},
        {4, workloads::bgJob("canneal")},
        {6, workloads::lcJob("masstree", 0.4)},
        {8, workloads::lcJob("memcached", 0.7)},
        {10, workloads::bgJob("streamcluster")},
        {12, workloads::lcJob("specjbb", 0.4)},
    };

    std::cout << "placement: least-loaded, nodes: " << fleet.nodeCount()
              << "\n\n";
    std::cout << "win  placed  resched  qos-met  bg-perf  pending\n";
    std::cout << "------------------------------------------------\n";

    const int windows = 20;
    size_t next = 0;
    for (int w = 1; w <= windows; ++w) {
        while (next < arrivals.size() && arrivals[next].window <= w) {
            uint64_t id = fleet.admit(arrivals[next].spec);
            std::cout << "  -> submit job " << id << " ("
                      << arrivals[next].spec.label() << ")\n";
            ++next;
        }
        cluster::FleetWindow win = fleet.tick();
        std::printf("%3d  %6d  %7d  %6.0f%%  %7.3f  %7d\n", win.window,
                    win.placed, win.rescheduled,
                    100.0 * win.qos_met_fraction, win.mean_bg_perf,
                    win.pending);
    }

    cluster::FleetSummary s = fleet.summarize();
    std::cout << "\nfleet summary over " << s.windows << " windows:\n";
    std::cout << "  jobs admitted/placed/pending/parked: "
              << s.jobs_admitted << "/" << s.jobs_placed << "/"
              << s.jobs_pending << "/" << s.jobs_parked << "\n";
    std::cout << "  evictions: " << s.evictions
              << ", re-optimizations: " << s.reoptimizations << "\n";
    std::printf("  QoS-met fraction: mean %.3f (min %.3f)\n",
                s.qos_met_fraction.mean(), s.qos_met_fraction.min());
    std::printf("  BG performance:   mean %.3f\n", s.bg_perf.mean());

    std::cout << "\nfinal placement:\n";
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        std::cout << "  node " << n << ":";
        if (fleet.nodeJobIds(n).empty())
            std::cout << " (empty)";
        for (uint64_t id : fleet.nodeJobIds(n))
            std::cout << " " << fleet.job(id).spec.label();
        std::cout << "\n";
    }

    // ---- Act two: the same trace under the async engine with chaos.
    // Three logical workers serve four nodes while 15% of assignments
    // lose their worker mid-task and 5% of node steps fail outright;
    // leases, retries and hedging have to absorb all of it.
    std::cout << "\n== async manager-worker engine, faults on ==\n";
    cluster::Fleet async_fleet(options);
    uint64_t traced_id = 0;
    for (const Arrival& a : arrivals) {
        uint64_t id = async_fleet.admit(a.spec);
        if (traced_id == 0 && a.spec.isLatencyCritical())
            traced_id = id;
    }

    cluster::AsyncOptions ao;
    ao.workers = 3;
    ao.faults.worker_loss_prob = 0.15;
    ao.faults.task_fail_prob = 0.05;
    ao.max_retries = 6;
    cluster::AsyncFleetEngine engine(async_fleet, ao);

    // With a traffic trace selected, the first LC job's offered load
    // follows it epoch by epoch (one epoch ~ one 2 s window): the
    // node's drift/violation triggers — filtered by the chosen
    // reoptimization policy — see realistic diurnal/flash-crowd load,
    // not just the admission level.
    std::unique_ptr<workloads::LoadTrace> trace =
        makeTrace(trace_kind, trace_seed);
    if (trace != nullptr) {
        std::cout << "traced job " << traced_id << " follows '"
                  << trace->name() << "' (seed " << trace_seed
                  << "), policy " << policy << "\n";
        for (int w = 1; w <= windows; ++w) {
            if (async_fleet.job(traced_id).state ==
                cluster::JobState::Placed)
                async_fleet.setJobLoad(traced_id,
                                       trace->loadAt(2.0 * w));
            engine.run(1);
        }
    } else {
        engine.run(windows);
    }
    const cluster::FleetMetrics& m = engine.metrics();

    std::printf("virtual time %.1f, %llu/%llu tasks committed, "
                "QoS-met %.0f%%, BG perf %.3f\n",
                engine.virtualTime(),
                (unsigned long long)m.tasks_committed,
                (unsigned long long)m.tasks_dispatched,
                100.0 * engine.qosMetFraction(), engine.meanBgPerf());
    std::cout << "robustness counters:\n";
    std::printf("  workers lost/rejoined:      %llu/%llu\n",
                (unsigned long long)m.workers_lost,
                (unsigned long long)m.workers_rejoined);
    std::printf("  lease expiries -> retries:  %llu -> %llu\n",
                (unsigned long long)m.lease_expiries,
                (unsigned long long)m.tasks_retried);
    std::printf("  task failures:              %llu\n",
                (unsigned long long)m.task_failures);
    std::printf("  hedges launched/won:        %llu/%llu\n",
                (unsigned long long)m.hedges_launched,
                (unsigned long long)m.hedges_won);
    std::printf("  windows failed/dropped:     %llu/%llu\n",
                (unsigned long long)m.windows_failed,
                (unsigned long long)m.windows_dropped);
    std::printf("  nodes quarantined:          %llu\n",
                (unsigned long long)m.nodes_quarantined);
    std::printf("  degraded dispatches:        %llu\n",
                (unsigned long long)m.degraded_dispatches);
    std::cout << "refit observability:\n";
    std::printf("  GP hyper-refits:            %llu\n",
                (unsigned long long)m.refits);
    std::printf("  probe evaluations:          %llu\n",
                (unsigned long long)m.probe_evals);
    std::printf("  coarse (budgeted) windows:  %llu\n",
                (unsigned long long)m.coarse_windows);
    std::cout << "percentile-over-time QoS:\n";
    std::printf("  violating/assessed windows: %llu/%llu (%.1f%%)\n",
                (unsigned long long)m.violating_windows,
                (unsigned long long)m.qos_windows,
                m.qos_windows > 0
                    ? 100.0 * double(m.violating_windows) /
                          double(m.qos_windows)
                    : 0.0);
    std::printf("  transients ridden:          %llu\n",
                (unsigned long long)m.transients_ridden);
    std::printf("  sustained shifts:           %llu\n",
                (unsigned long long)m.sustained_shifts);
    std::cout << (m.stalled ? "  engine STALLED (all workers dead)\n"
                            : "  no stall: every window was served\n");
    return 0;
}
