/**
 * @file
 * Golden traces of the async manager-worker fleet engine.
 *
 * The engine overlaps node steps with its own bookkeeping, and every
 * place where it waits for a step — a commit, an eviction, a placement
 * from a non-empty queue, a quarantine, the end of run() — is a place
 * where a wrong wait would change a decision. Each scenario below
 * drives one of those paths and pins the outcome to the last ULP:
 * the fleet digest, every FleetMetrics counter, the virtual time, the
 * per-commit QoS history and the fleet summary. Each is run at 1, 2
 * and 8 pool threads; the three traces must be identical to each
 * other and to the committed golden.
 *
 * Regenerating after an INTENDED change: see golden.h.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/manager.h"
#include "common/thread_pool.h"
#include "workloads/catalog.h"

#include "golden.h"

namespace clite {
namespace cluster {
namespace {

using golden::g17;

FleetOptions
fastFleet(int nodes, uint64_t seed)
{
    FleetOptions o;
    o.nodes = nodes;
    o.seed = seed;
    o.clite.max_iterations = 8;
    o.clite.acquisition_starts = 2;
    return o;
}

/** Per node one light LC and one BG job, drawn round-robin. */
void
admitMix(Fleet& fleet, int jobs)
{
    const std::vector<std::string>& lc = workloads::lcWorkloadNames();
    const std::vector<std::string>& bg = workloads::bgWorkloadNames();
    for (int i = 0; i < jobs; ++i) {
        if (i % 2 == 0)
            fleet.admit(workloads::lcJob(lc[size_t(i) % lc.size()], 0.3));
        else
            fleet.admit(workloads::bgJob(bg[size_t(i) % bg.size()]));
    }
}

/** Everything the engine decided, formatted to the last ULP. */
std::string
describe(const Fleet& fleet, const AsyncFleetEngine& engine)
{
    const FleetMetrics& m = engine.metrics();
    std::ostringstream out;
    out << "digest " << fleet.digest() << "\n";
    out << "virtual_time " << g17(engine.virtualTime()) << "\n";
    out << "qos_history count=" << engine.qosHistory().count()
        << " mean=" << g17(engine.qosHistory().mean()) << "\n";
    out << "dispatch dispatched=" << m.tasks_dispatched
        << " committed=" << m.tasks_committed
        << " retried=" << m.tasks_retried
        << " task_failures=" << m.task_failures
        << " lease_expiries=" << m.lease_expiries << "\n";
    out << "workers lost=" << m.workers_lost
        << " rejoined=" << m.workers_rejoined
        << " alive=" << engine.aliveWorkers() << "\n";
    out << "hedges launched=" << m.hedges_launched
        << " won=" << m.hedges_won << " cancelled=" << m.hedges_cancelled
        << " stale_results=" << m.stale_results << "\n";
    out << "windows failed=" << m.windows_failed
        << " dropped=" << m.windows_dropped
        << " quarantined=" << m.nodes_quarantined
        << " degraded_dispatches=" << m.degraded_dispatches
        << " stalled=" << (m.stalled ? 1 : 0) << "\n";
    out << "search refits=" << m.refits << " probe_evals=" << m.probe_evals
        << " coarse_windows=" << m.coarse_windows << "\n";
    out << "qos qos_windows=" << m.qos_windows
        << " violating=" << m.violating_windows
        << " transients_ridden=" << m.transients_ridden
        << " sustained_shifts=" << m.sustained_shifts << "\n";
    const FleetSummary s = fleet.summarize();
    out << "fleet placed=" << s.jobs_placed << " pending=" << s.jobs_pending
        << " parked=" << s.jobs_parked << " evictions=" << s.evictions
        << " store=" << fleet.profileStore().size() << "\n";
    out << "nodes";
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        const core::OnlineManager* mgr = fleet.nodeManager(n);
        out << " " << engine.windowsCommitted(n) << ":"
            << (mgr != nullptr ? mgr->warmSource() : "-")
            << (engine.quarantined(n) ? "!" : "");
    }
    out << "\n";
    return out.str();
}

/**
 * Run @p scenario at 1, 2 and 8 pool threads: the traces must agree
 * with each other and with the golden @p name.
 */
void
checkAcrossThreads(const std::string& name,
                   const std::function<std::string()>& scenario)
{
    std::vector<std::string> traces;
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        traces.push_back(scenario());
    }
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
    EXPECT_EQ(traces[0], traces[1]) << name << ": 2 threads diverged";
    EXPECT_EQ(traces[0], traces[2]) << name << ": 8 threads diverged";
    golden::checkGolden(name, traces[0]);
}

TEST(AsyncEngineGolden, WorkerLossFailuresAndHedgedStragglers)
{
    checkAcrossThreads("async_chaos", [] {
        Fleet fleet(fastFleet(4, 3));
        admitMix(fleet, 8);
        AsyncOptions o;
        o.workers = 4;
        o.max_retries = 6;
        o.straggler_prob = 0.2;
        o.straggler_factor = 10.0;
        o.hedge_delay = 2.0;
        o.faults.worker_loss_prob = 0.15;
        o.faults.task_fail_prob = 0.05;
        o.fault_seed = 42;
        AsyncFleetEngine engine(fleet, o);
        engine.run(6);
        return describe(fleet, engine);
    });
}

TEST(AsyncEngineGolden, UnservableTenantsEvictParkAndPlaceMidRun)
{
    // Three nodes of ten unit slots each, filled past capacity: two
    // jobs wait in the queue from the start. The masstree@100%
    // tenants miss QoS wherever they land, so evictions free slots
    // that the queued jobs take mid-run, and jobs that exhaust their
    // move budget are parked.
    checkAcrossThreads("async_evictions", [] {
        Fleet fleet(fastFleet(3, 5));
        admitMix(fleet, 26);
        for (int i = 0; i < 6; ++i)
            fleet.admit(workloads::lcJob("masstree", 1.0));
        AsyncOptions o;
        o.workers = 3;
        o.straggler_prob = 0.1;
        o.fault_seed = 9;
        AsyncFleetEngine engine(fleet, o);
        engine.run(6);
        return describe(fleet, engine);
    });
}

TEST(AsyncEngineGolden, BrokenNodeQuarantine)
{
    checkAcrossThreads("async_quarantine", [] {
        Fleet fleet(fastFleet(3, 3));
        admitMix(fleet, 6);
        AsyncOptions o;
        o.workers = 3;
        o.max_retries = 1;
        o.quarantine_failures = 2;
        platform::FaultPlan::NodeBreak broke;
        broke.node = 1;
        broke.after_epoch = 2;
        o.faults.node_breaks.push_back(broke);
        AsyncFleetEngine engine(fleet, o);
        engine.run(8);
        return describe(fleet, engine);
    });
}

TEST(AsyncEngineGolden, DegradedPoolShedsWindows)
{
    checkAcrossThreads("async_degraded", [] {
        Fleet fleet(fastFleet(3, 3));
        fleet.admit(workloads::lcJob("memcached", 0.3));
        fleet.admit(workloads::bgJob("canneal"));
        fleet.admit(workloads::bgJob("streamcluster"));
        AsyncOptions o;
        o.workers = 3;
        o.degrade_below = 1.0; // any loss at all degrades the pool
        platform::FaultPlan::WorkerDeath death;
        death.at_assignment = 3;
        death.worker = 2;
        o.faults.worker_deaths.push_back(death);
        AsyncFleetEngine engine(fleet, o);
        engine.run(8);
        return describe(fleet, engine);
    });
}

TEST(AsyncEngineGolden, DesFleetWarmStartsAcrossRuns)
{
    // Six DES nodes, three workers: the last nodes start their first
    // search after earlier ones have committed checkpoints, so a
    // lookup hits the store (node 5: "exact"). A load change between
    // the two run() calls drives drift re-optimizations.
    checkAcrossThreads("async_des_store", [] {
        FleetOptions fo = fastFleet(6, 11);
        fo.backend = harness::ModelBackend::Des;
        Fleet fleet(fo);
        std::vector<uint64_t> lc;
        for (int n = 0; n < 6; ++n) {
            lc.push_back(fleet.admit(workloads::lcJob(
                n % 2 == 0 ? "memcached" : "img-dnn", 0.3)));
            fleet.admit(workloads::bgJob("streamcluster"));
        }
        AsyncOptions o;
        o.workers = 3;
        o.straggler_prob = 0.1;
        o.fault_seed = 5;
        AsyncFleetEngine engine(fleet, o);
        engine.run(3);
        std::ostringstream trace;
        trace << describe(fleet, engine);
        for (size_t i = 0; i < lc.size(); i += 2)
            if (fleet.job(lc[i]).state == JobState::Placed)
                fleet.setJobLoad(lc[i], 0.6);
        engine.run(3);
        trace << describe(fleet, engine);
        return trace.str();
    });
}

} // namespace
} // namespace cluster
} // namespace clite
