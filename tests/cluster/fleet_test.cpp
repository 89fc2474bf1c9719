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

#include "cluster/fleet.h"
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

TEST(Fleet, InfeasibleJobIsRescheduledToAnIdleNode)
{
    // Warm node 0's headroom surrogate while node 1 stays empty; the
    // best-fit policy then co-locates the newcomer on node 0 (an
    // empty node has no surrogate and cannot bid). Driving the
    // newcomer's load to 100% makes it provably infeasible there —
    // the search's extremum check fires — and the fleet must move it
    // to the idle node, where it is feasible alone.
    Fleet fleet(fastFleet(2));
    uint64_t anchor = fleet.admit(workloads::lcJob("memcached", 0.3));
    for (int w = 0; w < 5; ++w)
        fleet.tick();
    ASSERT_TRUE(fleet.scheduler().model().ready(0));

    uint64_t probe = fleet.admit(workloads::lcJob("masstree", 0.1));
    fleet.tick();
    ASSERT_EQ(fleet.job(probe).node, fleet.job(anchor).node)
        << "best-fit should have co-located the probe on the warm node";

    fleet.setJobLoad(probe, 1.0);
    bool moved = false;
    for (int w = 0; w < 10 && !moved; ++w) {
        fleet.tick();
        moved = fleet.job(probe).state == JobState::Placed &&
                fleet.job(probe).node != fleet.job(anchor).node;
    }
    EXPECT_TRUE(moved) << "infeasible job was never rescheduled";
    EXPECT_GE(fleet.summarize().evictions, 1);

    // Settled: both nodes meet QoS again (masstree has its node to
    // itself; the drift re-optimization on the source node healed it).
    for (int w = 0; w < 4; ++w)
        fleet.tick();
    EXPECT_DOUBLE_EQ(fleet.history().back().qos_met_fraction, 1.0);
    expectRegistryConsistent(fleet);
}

TEST(Fleet, EvictionOntoAnIdleNodeRunsItsFirstWindowInTheSameTick)
{
    // The idle-node scenario above, watched tick by tick: the tick
    // whose eviction places the probe onto the empty node also runs
    // that node's first window. Its manager is initialized by the end
    // of the tick, and its search counts in the tick's
    // re-optimizations next to the source node's.
    Fleet fleet(fastFleet(2));
    uint64_t anchor = fleet.admit(workloads::lcJob("memcached", 0.3));
    for (int w = 0; w < 5; ++w)
        fleet.tick();
    uint64_t probe = fleet.admit(workloads::lcJob("masstree", 0.1));
    fleet.tick();
    ASSERT_EQ(fleet.job(probe).node, fleet.job(anchor).node);
    const size_t idle = fleet.job(anchor).node == 0 ? 1 : 0;
    ASSERT_EQ(fleet.nodeManager(idle), nullptr);

    fleet.setJobLoad(probe, 1.0);
    bool moved = false;
    for (int w = 0; w < 10 && !moved; ++w) {
        const FleetWindow win = fleet.tick();
        moved = fleet.job(probe).state == JobState::Placed &&
                fleet.job(probe).node == int(idle);
        if (!moved)
            continue;
        EXPECT_EQ(win.evicted, 1);
        EXPECT_EQ(win.rescheduled, 1);
        const core::OnlineManager* manager = fleet.nodeManager(idle);
        ASSERT_NE(manager, nullptr);
        EXPECT_NO_THROW(manager->lastResult())
            << "the destination's first search did not run this tick";
        EXPECT_EQ(win.reoptimizations, 2)
            << "source and destination searches both count";
    }
    EXPECT_TRUE(moved) << "infeasible job was never rescheduled";
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
    // The bystanders were never lost and QoS recovers without the
    // unservable tenant.
    EXPECT_EQ(fleet.job(a).state, JobState::Placed);
    EXPECT_EQ(fleet.job(b).state, JobState::Placed);
    for (int w = 0; w < 4; ++w)
        fleet.tick();
    EXPECT_DOUBLE_EQ(fleet.history().back().qos_met_fraction, 1.0);
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
