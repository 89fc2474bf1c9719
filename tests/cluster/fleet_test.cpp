/**
 * @file
 * End-to-end tests for the multi-node Fleet: admission, placement,
 * infeasibility-driven rescheduling, parking and metrics.
 *
 * The load levels used here are calibrated against the analytic
 * model: masstree@100% misses QoS co-located with anything (even when
 * every neighbor sits at one unit of each resource) but is feasible
 * with a node to itself — the perfect probe for the reschedule path.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cluster/fleet.h"
#include "cluster/manager.h"
#include "common/error.h"
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
    o.clite.max_iterations = 15;
    o.clite.acquisition_starts = 4;
    return o;
}

/** Every admitted job is in exactly one of: a node, the queue, the
 *  parked set — and each placed id appears on exactly one node. */
void
expectRegistryConsistent(const Fleet& fleet)
{
    std::set<uint64_t> on_nodes;
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        for (uint64_t id : fleet.nodeJobIds(n)) {
            EXPECT_TRUE(on_nodes.insert(id).second)
                << "job " << id << " hosted twice";
            EXPECT_EQ(fleet.job(id).state, JobState::Placed);
            EXPECT_EQ(fleet.job(id).node, int(n));
        }
        const platform::SimulatedServer* server = fleet.nodeServer(n);
        if (server == nullptr)
            EXPECT_TRUE(fleet.nodeJobIds(n).empty());
        else
            EXPECT_EQ(server->jobCount(), fleet.nodeJobIds(n).size());
    }
    for (const FleetJob& job : fleet.jobs()) {
        if (job.state == JobState::Placed)
            EXPECT_EQ(on_nodes.count(job.id), 1u)
                << "placed job " << job.id << " hosted nowhere";
        else
            EXPECT_EQ(on_nodes.count(job.id), 0u)
                << jobStateName(job.state) << " job " << job.id
                << " still hosted";
    }
}

TEST(Fleet, AdmissionQueuesUntilTheNextWindow)
{
    Fleet fleet(fastFleet(2));
    uint64_t id = fleet.admit(workloads::lcJob("memcached", 0.3));
    EXPECT_EQ(fleet.job(id).state, JobState::Pending);

    FleetWindow w = fleet.tick();
    EXPECT_EQ(w.placed, 1);
    EXPECT_EQ(w.pending, 0);
    EXPECT_EQ(fleet.job(id).state, JobState::Placed);
    ASSERT_NE(fleet.nodeServer(size_t(fleet.job(id).node)), nullptr);
    expectRegistryConsistent(fleet);
}

TEST(Fleet, ColdStartSpreadsJobsAcrossNodes)
{
    Fleet fleet(fastFleet(3));
    fleet.admit(workloads::lcJob("memcached", 0.3));
    fleet.admit(workloads::lcJob("xapian", 0.3));
    fleet.admit(workloads::lcJob("img-dnn", 0.3));
    fleet.tick();

    // Least-loaded cold start: one job per node.
    for (size_t n = 0; n < fleet.nodeCount(); ++n)
        EXPECT_EQ(fleet.nodeJobIds(n).size(), 1u) << "node " << n;
    expectRegistryConsistent(fleet);
}

TEST(Fleet, EmptyFleetTicksAreHarmless)
{
    Fleet fleet(fastFleet(2));
    FleetWindow w = fleet.tick();
    EXPECT_EQ(w.placed, 0);
    EXPECT_EQ(w.reoptimizations, 0);
    EXPECT_DOUBLE_EQ(w.qos_met_fraction, 1.0);
    EXPECT_DOUBLE_EQ(w.mean_bg_perf, 0.0);
    EXPECT_EQ(fleet.summarize().jobs_admitted, 0);
}

TEST(Fleet, JobPlacedOnAnIdleNodeMidRunRunsItsFirstWindowInTheSameRun)
{
    // Least-loaded spreads the two jobs over nodes 0 and 1 and leaves
    // node 2 empty. Node 0 breaks, so the engine quarantines it and
    // re-places its LC job mid-run onto the least-loaded healthy node:
    // the empty one. That node's first window must run in the same
    // run(), and the job, alone there, meets QoS.
    Fleet fleet(fastFleet(3));
    const uint64_t lc = fleet.admit(workloads::lcJob("memcached", 0.3));
    fleet.admit(workloads::bgJob("canneal"));
    AsyncOptions o;
    o.workers = 3;
    o.max_retries = 1;
    o.quarantine_failures = 2;
    platform::FaultPlan::NodeBreak broke;
    broke.node = 0;
    broke.after_epoch = 0;
    o.faults.node_breaks.push_back(broke);
    AsyncFleetEngine engine(fleet, o);
    engine.run(6);

    ASSERT_TRUE(engine.quarantined(0));
    ASSERT_EQ(fleet.job(lc).state, JobState::Placed);
    ASSERT_EQ(fleet.job(lc).node, 2)
        << "the quarantined job should land on the idle node";
    EXPECT_EQ(engine.windowsCommitted(2), 6u)
        << "the idle node's windows did not all run in the same run()";
    const core::OnlineManager* manager = fleet.nodeManager(2);
    ASSERT_NE(manager, nullptr);
    EXPECT_NO_THROW(manager->lastResult())
        << "the idle node's first search did not run";
    EXPECT_EQ(engine.qosMetFraction(), 1.0);
    expectRegistryConsistent(fleet);
}

TEST(Fleet, UnservableJobIsParkedAfterMoveBudget)
{
    // With every node occupied, a job infeasible next to anything
    // ping-pongs between nodes; the move budget must stop the thrash
    // by parking it — still registered, never dropped.
    FleetOptions options = fastFleet(2);
    options.max_moves = 2;
    Fleet fleet(options);
    uint64_t a = fleet.admit(workloads::lcJob("memcached", 0.2));
    uint64_t b = fleet.admit(workloads::lcJob("xapian", 0.2));
    uint64_t probe = fleet.admit(workloads::lcJob("masstree", 0.1));
    fleet.tick();
    ASSERT_EQ(fleet.job(a).state, JobState::Placed);
    ASSERT_EQ(fleet.job(b).state, JobState::Placed);
    ASSERT_EQ(fleet.job(probe).state, JobState::Placed);

    fleet.setJobLoad(probe, 1.0);
    for (int w = 0; w < 20 && fleet.job(probe).state != JobState::Parked;
         ++w)
        fleet.tick();

    EXPECT_EQ(fleet.job(probe).state, JobState::Parked);
    EXPECT_GT(fleet.job(probe).moves, options.max_moves);
    // The bystanders were never lost and meet QoS without the
    // unservable tenant; the parked tenant still counts, as a miss.
    EXPECT_EQ(fleet.job(a).state, JobState::Placed);
    EXPECT_EQ(fleet.job(b).state, JobState::Placed);
    for (int w = 0; w < 4; ++w)
        fleet.tick();
    EXPECT_EQ(fleet.history().back().qos_met_fraction, 2.0 / 3.0);
    expectRegistryConsistent(fleet);
}

/** An LC job whose QoS target no allocation can meet. */
workloads::JobSpec
unservableJob(const std::string& name)
{
    workloads::JobSpec job = workloads::lcJob("memcached", 0.3);
    job.profile.name = name;
    job.profile.qos_p95_ms = 1e-6;
    return job;
}

TEST(Fleet, EvictionsOfOneReportDoNotMakeTheLastJobLookAlone)
{
    // Least-loaded puts the heavy servable job on node 0 and both
    // unservable jobs on node 1, whose first search reports both. They
    // were judged co-located, so the report must evict both to node 0
    // (one move each) and park neither as infeasible even alone, though
    // the second job evicted is the last one left on node 1.
    Fleet fleet(fastFleet(2));
    const uint64_t heavy = fleet.admit(workloads::lcJob("xapian", 0.9));
    const uint64_t a = fleet.admit(unservableJob("unservable-a"));
    const uint64_t b = fleet.admit(unservableJob("unservable-b"));
    FleetWindow w = fleet.tick();
    ASSERT_EQ(fleet.job(heavy).node, 0);
    ASSERT_EQ(w.evicted, 2) << "the first report should evict both jobs";
    for (uint64_t id : {a, b}) {
        EXPECT_NE(fleet.job(id).state, JobState::Parked) << "job " << id;
        EXPECT_EQ(fleet.job(id).moves, 1) << "job " << id;
    }
    EXPECT_EQ(w.parked, 0);
    expectRegistryConsistent(fleet);
}

TEST(Fleet, SetJobLoadRequiresAPlacedJob)
{
    Fleet fleet(fastFleet(2));
    uint64_t id = fleet.admit(workloads::lcJob("memcached", 0.3));
    EXPECT_THROW(fleet.setJobLoad(id, 0.5), Error);
    EXPECT_THROW(fleet.setJobLoad(99, 0.5), Error);
    EXPECT_THROW(fleet.job(0), Error);
}

TEST(Fleet, SummaryCountsAndMetricsAccumulate)
{
    Fleet fleet(fastFleet(2));
    fleet.admit(workloads::lcJob("memcached", 0.3));
    fleet.admit(workloads::bgJob("canneal"));
    for (int w = 0; w < 3; ++w)
        fleet.tick();

    FleetSummary s = fleet.summarize();
    EXPECT_EQ(s.windows, 3);
    EXPECT_EQ(s.jobs_admitted, 2);
    EXPECT_EQ(s.jobs_placed, 2);
    EXPECT_EQ(size_t(s.windows), fleet.history().size());
    EXPECT_EQ(s.qos_met_fraction.count(), 3u);
    EXPECT_GT(s.bg_perf.mean(), 0.0);
    EXPECT_FALSE(fleet.digest().empty());
}

TEST(Fleet, SlowSixtyFourNodeFleetLosesNoJobs)
{
    // The acceptance-scale scenario: 64 nodes, a stream of arrivals
    // (including unservable tenants), windows with admissions,
    // evictions and rescheduling — and at every window the registry
    // partition invariant holds: each job on exactly one node, or
    // queued, or parked; nothing lost, nothing duplicated.
    FleetOptions options = fastFleet(64, 17);
    options.clite.max_iterations = 6;
    options.clite.acquisition_starts = 2;
    Fleet fleet(options);

    const std::vector<std::string>& lc = workloads::lcWorkloadNames();
    const std::vector<std::string>& bg = workloads::bgWorkloadNames();
    size_t admitted = 0;
    for (int w = 0; w < 12; ++w) {
        // 16 arrivals per window for the first 8 windows: 128 jobs on
        // 64 nodes forces widespread co-location.
        if (w < 8) {
            for (int k = 0; k < 16; ++k, ++admitted) {
                if (admitted % 3 == 2) {
                    fleet.admit(workloads::bgJob(
                        bg[admitted % bg.size()]));
                } else {
                    // Every 10th LC arrival is a full-load masstree:
                    // infeasible wherever it is co-located.
                    const std::string& name = lc[admitted % lc.size()];
                    double load = admitted % 10 == 9 ? 1.0 : 0.3;
                    fleet.admit(workloads::lcJob(
                        load == 1.0 ? "masstree" : name, load));
                }
            }
        }
        fleet.tick();
        expectRegistryConsistent(fleet);
    }

    FleetSummary s = fleet.summarize();
    EXPECT_EQ(s.jobs_admitted, int(admitted));
    EXPECT_EQ(s.jobs_placed + s.jobs_pending + s.jobs_parked,
              int(admitted));
    // The fleet actually exercised the reschedule machinery.
    EXPECT_GE(s.evictions, 1);
    EXPECT_GT(s.jobs_placed, 100);
    // Sanity floor on QoS: with max_iterations=6 the per-node
    // searches are deliberately starved, so this is not the paper's
    // QoS-met rate — it only guards against the fleet degenerating
    // into mass violation.
    EXPECT_GE(fleet.history().back().qos_met_fraction, 0.6);
}

} // namespace
} // namespace cluster
} // namespace clite
