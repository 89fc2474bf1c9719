/**
 * @file
 * Chaos and property tests for the async manager-worker engine.
 *
 * The engine's robustness claims are properties, not anecdotes, and
 * they are tested as such across seeds:
 *
 *  - **Zero job loss.** Whatever workers die, every admitted job is in
 *    exactly one of {a node, the queue, the parked set} afterwards.
 *  - **Exactly-once windows.** Each node commits each observation
 *    window at most once, and commits + failures + sheds account for
 *    every window the run owed.
 *  - **Retry completeness.** With a retry budget that covers the
 *    injected loss rate, every lost task's window is eventually
 *    committed by a resubmission — no window silently vanishes.
 *  - **Reproducibility.** Same seed + same worker count => identical
 *    digest, identical robustness counters, at any thread count of the
 *    underlying pool.
 *
 * The 10-seed sweeps are the long variants ("Slow" => ctest label
 * slow); the fast variants here keep the tier-1 gate cheap.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/manager.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "workloads/catalog.h"

namespace clite {
namespace cluster {
namespace {

FleetOptions
fastFleet(int nodes, uint64_t seed = 3)
{
    FleetOptions o;
    o.nodes = nodes;
    o.seed = seed;
    o.clite.max_iterations = 8;
    o.clite.acquisition_starts = 2;
    return o;
}

/** Admit a deterministic co-locatable mix: per node one light LC and
 *  one BG job (feasible everywhere, so QoS converges). */
void
admitMix(Fleet& fleet, int jobs_per_node = 2)
{
    const std::vector<std::string>& lc = workloads::lcWorkloadNames();
    const std::vector<std::string>& bg = workloads::bgWorkloadNames();
    const int total = int(fleet.nodeCount()) * jobs_per_node;
    for (int i = 0; i < total; ++i) {
        if (i % 2 == 0)
            fleet.admit(workloads::lcJob(lc[size_t(i) % lc.size()], 0.3));
        else
            fleet.admit(workloads::bgJob(bg[size_t(i) % bg.size()]));
    }
}

/** Every admitted job is in exactly one place; no job was lost. */
void
expectNoJobLoss(const Fleet& fleet)
{
    std::set<uint64_t> on_nodes;
    for (size_t n = 0; n < fleet.nodeCount(); ++n)
        for (uint64_t id : fleet.nodeJobIds(n)) {
            EXPECT_TRUE(on_nodes.insert(id).second)
                << "job " << id << " hosted twice";
            EXPECT_EQ(fleet.job(id).state, JobState::Placed);
            EXPECT_EQ(fleet.job(id).node, int(n));
        }
    for (const FleetJob& job : fleet.jobs()) {
        const bool hosted = on_nodes.count(job.id) == 1;
        if (job.state == JobState::Placed)
            EXPECT_TRUE(hosted)
                << "placed job " << job.id << " hosted nowhere";
        else
            EXPECT_FALSE(hosted) << jobStateName(job.state) << " job "
                                 << job.id << " still hosted";
    }
}

/** Committed + failed + shed must cover everything the run owed. */
void
expectWindowAccounting(const AsyncFleetEngine& engine, const Fleet& fleet,
                       int epochs)
{
    const FleetMetrics& m = engine.metrics();
    uint64_t committed = 0;
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        EXPECT_LE(engine.windowsCommitted(n), uint64_t(epochs))
            << "node " << n << " committed more windows than scheduled";
        committed += engine.windowsCommitted(n);
    }
    EXPECT_EQ(committed, m.tasks_committed);
    EXPECT_LE(m.tasks_committed + m.windows_failed + m.windows_dropped,
              uint64_t(epochs) * fleet.nodeCount());
    EXPECT_GE(m.tasks_dispatched,
              m.tasks_committed + m.task_failures);
}

// ---------------------------------------------------------------------
// Fault-free baseline
// ---------------------------------------------------------------------

TEST(AsyncEngine, CleanRunCommitsEveryWindow)
{
    Fleet fleet(fastFleet(4));
    admitMix(fleet);
    AsyncOptions o;
    o.workers = 4;
    o.straggler_prob = 0.0;
    AsyncFleetEngine engine(fleet, o);
    const FleetMetrics& m = engine.run(6);

    for (size_t n = 0; n < fleet.nodeCount(); ++n)
        EXPECT_EQ(engine.windowsCommitted(n), 6u) << "node " << n;
    EXPECT_EQ(m.tasks_committed, 24u);
    EXPECT_EQ(m.tasks_retried, 0u);
    EXPECT_EQ(m.workers_lost, 0u);
    EXPECT_EQ(m.windows_failed, 0u);
    EXPECT_EQ(m.windows_dropped, 0u);
    EXPECT_EQ(m.nodes_quarantined, 0u);
    EXPECT_FALSE(m.stalled);
    EXPECT_GT(engine.virtualTime(), 0.0);
    expectNoJobLoss(fleet);
    // The feasible mix converges: every LC job ends with QoS met.
    EXPECT_EQ(engine.qosMetFraction(), 1.0);
    EXPECT_GT(engine.meanBgPerf(), 0.0);
}

// ---------------------------------------------------------------------
// Lost-worker recovery
// ---------------------------------------------------------------------

TEST(AsyncEngine, WorkerChurnLosesNoJobsAndRetriesComplete)
{
    for (uint64_t seed : {7ull, 11ull}) {
        Fleet fleet(fastFleet(4, seed));
        admitMix(fleet);
        AsyncOptions o;
        o.workers = 4;
        o.max_retries = 6; // generous: churn must never exhaust it
        o.faults.worker_loss_prob = 0.2;
        o.fault_seed = seed;
        AsyncFleetEngine engine(fleet, o);
        const FleetMetrics& m = engine.run(6);

        EXPECT_GT(m.workers_lost, 0u) << "seed " << seed
                                      << ": churn did not materialize";
        EXPECT_GT(m.tasks_retried, 0u) << "seed " << seed;
        EXPECT_EQ(m.workers_lost, m.workers_rejoined) << "seed " << seed;
        // Every lost task was resubmitted within the budget: no window
        // failed, every node finished its schedule.
        EXPECT_EQ(m.windows_failed, 0u) << "seed " << seed;
        for (size_t n = 0; n < fleet.nodeCount(); ++n)
            EXPECT_EQ(engine.windowsCommitted(n), 6u)
                << "seed " << seed << ", node " << n;
        expectNoJobLoss(fleet);
        expectWindowAccounting(engine, fleet, 6);
        EXPECT_EQ(engine.qosMetFraction(), 1.0) << "seed " << seed;
    }
}

TEST(AsyncEngine, SlowChaosSweepTenSeedsTwentyPercentLoss)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        Fleet fleet(fastFleet(8, seed));
        admitMix(fleet);
        AsyncOptions o;
        o.workers = 6;
        o.max_retries = 6;
        o.faults.worker_loss_prob = 0.2;
        o.faults.task_fail_prob = 0.05;
        o.fault_seed = seed * 1000003ull;
        AsyncFleetEngine engine(fleet, o);
        const FleetMetrics& m = engine.run(8);

        EXPECT_GT(m.workers_lost, 0u) << "seed " << seed;
        expectNoJobLoss(fleet);
        expectWindowAccounting(engine, fleet, 8);
        // Retry budget covers a 20% loss rate: windows fail only
        // through repeated *task* failures, never worker churn alone.
        EXPECT_LE(m.windows_failed, m.task_failures) << "seed " << seed;
        // The mix is feasible: whatever the churn did, every node that
        // is still serviceable converged to all-QoS-met.
        EXPECT_EQ(engine.qosMetFraction(), 1.0) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Reproducibility
// ---------------------------------------------------------------------

struct ChaosOutcome
{
    std::string digest;
    uint64_t committed = 0;
    uint64_t retried = 0;
    uint64_t lost = 0;
    uint64_t hedges = 0;
    double virtual_time = 0.0;
};

ChaosOutcome
runChaos(uint64_t seed, int workers, int threads)
{
    setGlobalThreadCount(threads);
    Fleet fleet(fastFleet(4, 3));
    admitMix(fleet);
    AsyncOptions o;
    o.workers = workers;
    o.max_retries = 6;
    o.straggler_prob = 0.1;
    o.faults.worker_loss_prob = 0.15;
    o.faults.task_fail_prob = 0.05;
    o.fault_seed = seed;
    AsyncFleetEngine engine(fleet, o);
    const FleetMetrics& m = engine.run(6);
    ChaosOutcome out;
    out.digest = fleet.digest();
    out.committed = m.tasks_committed;
    out.retried = m.tasks_retried;
    out.lost = m.workers_lost;
    out.hedges = m.hedges_launched;
    out.virtual_time = engine.virtualTime();
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
    return out;
}

TEST(AsyncEngine, SameSeedSameWorkerCountReproducible)
{
    ChaosOutcome a = runChaos(42, 4, 4);
    ChaosOutcome b = runChaos(42, 4, 4);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.hedges, b.hedges);
    EXPECT_EQ(a.virtual_time, b.virtual_time);
}

TEST(AsyncEngine, ChaosRunIsThreadCountInvariant)
{
    // The async schedule lives in virtual time; the real pool only
    // fans out the node steps. Serial and parallel pools must agree
    // bit-for-bit.
    ChaosOutcome serial = runChaos(42, 4, 1);
    ChaosOutcome parallel = runChaos(42, 4, 8);
    EXPECT_EQ(serial.digest, parallel.digest);
    EXPECT_EQ(serial.committed, parallel.committed);
    EXPECT_EQ(serial.retried, parallel.retried);
    EXPECT_EQ(serial.virtual_time, parallel.virtual_time);
}

TEST(AsyncEngine, DifferentFaultSeedsDiverge)
{
    ChaosOutcome a = runChaos(1, 4, 4);
    ChaosOutcome b = runChaos(2, 4, 4);
    // Different chaos, different schedule; the controller outcome may
    // coincide, the robustness trace practically never does.
    EXPECT_TRUE(a.retried != b.retried || a.lost != b.lost ||
                a.virtual_time != b.virtual_time);
}

// ---------------------------------------------------------------------
// Straggler hedging
// ---------------------------------------------------------------------

TEST(AsyncEngine, HedgesRescueStragglers)
{
    Fleet fleet(fastFleet(4));
    admitMix(fleet);
    AsyncOptions o;
    o.workers = 6;
    o.straggler_prob = 0.3;
    o.straggler_factor = 10.0;
    o.lease = 50.0; // leases out of the picture: hedges do the rescue
    o.hedge_delay = 2.0;
    AsyncFleetEngine engine(fleet, o);
    const FleetMetrics& m = engine.run(6);

    EXPECT_GT(m.hedges_launched, 0u);
    EXPECT_GT(m.hedges_won, 0u) << "no hedge ever beat its straggler";
    // First result wins, loser cancelled: every launched hedge either
    // won or was cancelled (none can be pending after run()).
    EXPECT_EQ(m.hedges_launched, m.hedges_won + m.hedges_cancelled);
    for (size_t n = 0; n < fleet.nodeCount(); ++n)
        EXPECT_EQ(engine.windowsCommitted(n), 6u) << "node " << n;
    expectNoJobLoss(fleet);
}

TEST(AsyncEngine, HedgingOffNeverSpeculates)
{
    Fleet fleet(fastFleet(2));
    admitMix(fleet);
    AsyncOptions o;
    o.workers = 4;
    o.hedging = false;
    o.straggler_prob = 0.3;
    o.straggler_factor = 4.0; // < lease: stragglers finish on their own
    AsyncFleetEngine engine(fleet, o);
    const FleetMetrics& m = engine.run(4);
    EXPECT_EQ(m.hedges_launched, 0u);
    EXPECT_EQ(m.tasks_committed, 8u);
}

// ---------------------------------------------------------------------
// Node quarantine
// ---------------------------------------------------------------------

TEST(AsyncEngine, BrokenNodeIsQuarantinedAndJobsRescheduled)
{
    Fleet fleet(fastFleet(3));
    admitMix(fleet);
    AsyncOptions o;
    o.workers = 3;
    o.max_retries = 1;
    o.quarantine_failures = 2;
    platform::FaultPlan::NodeBreak broke;
    broke.node = 0;
    broke.after_epoch = 0;
    o.faults.node_breaks.push_back(broke);
    AsyncFleetEngine engine(fleet, o);
    const FleetMetrics& m = engine.run(8);

    EXPECT_TRUE(engine.quarantined(0));
    EXPECT_EQ(engine.quarantinedCount(), 1u);
    EXPECT_EQ(m.nodes_quarantined, 1u);
    EXPECT_GE(m.windows_failed, 2u);
    EXPECT_GT(m.task_failures, 0u);
    EXPECT_EQ(engine.windowsCommitted(0), 0u)
        << "a broken node must never commit";
    // The node was drained and its jobs rescheduled elsewhere without
    // being charged a move (the node failed, not the job): nothing may
    // be parked because of the quarantine.
    EXPECT_TRUE(fleet.nodeJobIds(0).empty());
    expectNoJobLoss(fleet);
    for (const FleetJob& job : fleet.jobs())
        EXPECT_NE(job.node, 0) << "job " << job.id
                               << " still points at the quarantined node";
    // Healthy nodes were never disturbed.
    EXPECT_GT(engine.windowsCommitted(1), 0u);
    EXPECT_GT(engine.windowsCommitted(2), 0u);
}

// ---------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------

TEST(AsyncEngine, DegradedPoolServesCriticalNodesFirst)
{
    Fleet fleet(fastFleet(2));
    // One QoS-critical node (LC job) and one BG-only node.
    fleet.admit(workloads::lcJob("memcached", 0.3));
    fleet.admit(workloads::bgJob("canneal"));
    AsyncOptions o;
    o.workers = 2;
    o.degrade_below = 1.0; // any loss at all degrades the pool
    platform::FaultPlan::WorkerDeath death;
    death.at_assignment = 2; // let both nodes start, then lose slot 1
    death.worker = 1;
    o.faults.worker_deaths.push_back(death);
    AsyncFleetEngine engine(fleet, o);
    const FleetMetrics& m = engine.run(8);

    // Least-loaded placement spread the two jobs over the two nodes —
    // the scenario needs a BG-only node to exist.
    ASSERT_EQ(fleet.nodeJobIds(0).size(), 1u);
    ASSERT_EQ(fleet.nodeJobIds(1).size(), 1u);
    size_t lc_node =
        fleet.job(fleet.nodeJobIds(0)[0]).spec.isLatencyCritical() ? 0 : 1;
    size_t bg_node = 1 - lc_node;

    EXPECT_EQ(m.workers_lost, 1u);
    EXPECT_EQ(m.workers_rejoined, 0u) << "scripted deaths are permanent";
    EXPECT_GT(m.degraded_dispatches, 0u);
    EXPECT_GT(m.windows_dropped, 0u)
        << "the BG-only node should have shed windows";
    EXPECT_EQ(engine.windowsCommitted(lc_node), 8u)
        << "the QoS-critical node must finish its full schedule";
    EXPECT_LT(engine.windowsCommitted(bg_node), 8u);
    expectNoJobLoss(fleet);
}

TEST(AsyncEngine, TotalWorkerLossStallsVisiblyWithoutJobLoss)
{
    Fleet fleet(fastFleet(2));
    admitMix(fleet);
    AsyncOptions o;
    o.workers = 2;
    for (size_t w = 0; w < 2; ++w) {
        platform::FaultPlan::WorkerDeath death;
        death.at_assignment = 4;
        death.worker = w;
        o.faults.worker_deaths.push_back(death);
    }
    AsyncFleetEngine engine(fleet, o);
    const FleetMetrics& m = engine.run(8);

    EXPECT_TRUE(m.stalled);
    EXPECT_EQ(engine.aliveWorkers(), 0);
    EXPECT_EQ(m.workers_lost, 2u);
    EXPECT_LT(m.tasks_committed, 16u);
    expectNoJobLoss(fleet);
}

// ---------------------------------------------------------------------
// Bookkeeping bounds and error propagation
// ---------------------------------------------------------------------

TEST(AsyncEngine, RegistryKeepsOnlyLiveAttempts)
{
    // Every attempt record is dropped once it commits, fails, is lost,
    // superseded or shed, so the registry is empty between runs however
    // many attempts a run made — memory does not grow with run length.
    Fleet fleet(fastFleet(4));
    admitMix(fleet);
    AsyncOptions o;
    o.workers = 4;
    o.max_retries = 6;
    o.straggler_prob = 0.2;
    o.straggler_factor = 10.0;
    o.hedge_delay = 2.0;
    o.faults.worker_loss_prob = 0.15;
    o.faults.task_fail_prob = 0.05;
    AsyncFleetEngine engine(fleet, o);
    const FleetMetrics& m = engine.run(6);
    ASSERT_GT(m.tasks_dispatched, m.tasks_committed)
        << "the run must resolve attempts other than by committing";
    EXPECT_EQ(engine.trackedTasks(), 0u);
    engine.run(6);
    EXPECT_EQ(engine.trackedTasks(), 0u);

    // A stalled run sheds its backlog: those records go too.
    Fleet stalled(fastFleet(2));
    admitMix(stalled);
    AsyncOptions dead;
    dead.workers = 2;
    for (size_t w = 0; w < 2; ++w) {
        platform::FaultPlan::WorkerDeath death;
        death.at_assignment = 4;
        death.worker = w;
        dead.faults.worker_deaths.push_back(death);
    }
    AsyncFleetEngine stalled_engine(stalled, dead);
    ASSERT_TRUE(stalled_engine.run(8).stalled);
    EXPECT_EQ(stalled_engine.trackedTasks(), 0u);
}

TEST(AsyncEngine, NodeStepExceptionSurfacesFromRun)
{
    // Node steps run on pool workers; an exception thrown by one must
    // reach run()'s caller, not terminate a worker thread.
    for (int threads : {1, 4}) {
        setGlobalThreadCount(threads);
        FleetOptions fo = fastFleet(3);
        fo.clite.kernel = "no-such-kernel"; // throws inside the search
        Fleet fleet(fo);
        admitMix(fleet);
        AsyncFleetEngine engine(fleet, AsyncOptions{});
        EXPECT_THROW(engine.run(2), Error) << threads << " threads";
    }
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
}

TEST(AsyncEngine, FleetSummaryCountsEngineReoptimizations)
{
    // Re-optimizations the engine runs count in the fleet summary, as
    // they do under Fleet::tick(): a load step past the drift
    // threshold makes every node re-optimize.
    Fleet fleet(fastFleet(2));
    admitMix(fleet);
    AsyncFleetEngine engine(fleet, AsyncOptions{});
    engine.run(2);
    for (const FleetJob& job : fleet.jobs())
        if (job.spec.isLatencyCritical())
            fleet.setJobLoad(job.id, 0.6);
    engine.run(4);
    int searches = 0;
    for (size_t n = 0; n < fleet.nodeCount(); ++n)
        if (const core::OnlineManager* m = fleet.nodeManager(n))
            searches += m->reoptimizations();
    EXPECT_GT(searches, 0);
    EXPECT_EQ(fleet.summarize().reoptimizations, searches);
}

// ---------------------------------------------------------------------
// Lockstep coexistence
// ---------------------------------------------------------------------

TEST(AsyncEngine, LockstepDigestUnchangedByEngineRefactor)
{
    // The async engine shares Fleet's placement/eviction substrate;
    // this guards the refactor: a pure lockstep run must be identical
    // whether or not the engine code exists in the binary (compared
    // against a second fleet driven the same way).
    FleetOptions fo = fastFleet(3, 17);
    Fleet a(fo);
    Fleet b(fo);
    for (Fleet* f : {&a, &b}) {
        admitMix(*f);
        for (int w = 0; w < 4; ++w)
            f->tick();
    }
    EXPECT_EQ(a.digest(), b.digest());
}

} // namespace
} // namespace cluster
} // namespace clite
