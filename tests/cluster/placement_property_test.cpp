/**
 * @file
 * Property tests for cluster placement: random fleets and job mixes,
 * checked against the invariants that must survive any schedule —
 * every placed job on exactly one node, every node's programmed
 * allocation satisfying the Eq. 4-6 sum constraints, and rescheduling
 * never dropping or duplicating a job — plus the one placement rule
 * itself: least-loaded, blind to observed scores.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/fleet.h"
#include "common/rng.h"
#include "workloads/catalog.h"

namespace clite {
namespace cluster {
namespace {

workloads::JobSpec
randomJob(Rng& rng)
{
    const std::vector<std::string>& lc = workloads::lcWorkloadNames();
    const std::vector<std::string>& bg = workloads::bgWorkloadNames();
    if (rng.uniform() < 0.6) {
        std::string name = lc[size_t(
            rng.uniformInt(0, int64_t(lc.size()) - 1))];
        // Mostly servable loads with an occasional hot tenant.
        double load = rng.uniform() < 0.15
                          ? 1.0
                          : rng.uniform(0.1, 0.5);
        return workloads::lcJob(name, load);
    }
    return workloads::bgJob(
        bg[size_t(rng.uniformInt(0, int64_t(bg.size()) - 1))]);
}

/** The fleet-wide partition invariant plus per-node Eq. 4-6 checks. */
void
checkInvariants(const Fleet& fleet)
{
    std::set<uint64_t> hosted;
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        const platform::SimulatedServer* server = fleet.nodeServer(n);
        const std::vector<uint64_t>& ids = fleet.nodeJobIds(n);
        if (server == nullptr) {
            ASSERT_TRUE(ids.empty());
            continue;
        }
        ASSERT_EQ(server->jobCount(), ids.size());
        for (uint64_t id : ids) {
            ASSERT_TRUE(hosted.insert(id).second)
                << "job " << id << " on two nodes";
            ASSERT_EQ(fleet.job(id).state, JobState::Placed);
            ASSERT_EQ(fleet.job(id).node, int(n));
        }
        // Eq. 4-6 on the partition actually programmed: every job at
        // least one unit of every resource, every unit assigned.
        const platform::Allocation& alloc = server->currentAllocation();
        ASSERT_TRUE(alloc.valid()) << "node " << n;
        ASSERT_EQ(alloc.jobs(), ids.size());
        for (size_t r = 0; r < alloc.resources(); ++r) {
            int sum = 0;
            for (size_t j = 0; j < alloc.jobs(); ++j) {
                ASSERT_GE(alloc.get(j, r), 1);
                sum += alloc.get(j, r);
            }
            ASSERT_EQ(sum, alloc.resourceUnits(r));
        }
    }
    // Non-placed jobs are nowhere; placed jobs are somewhere.
    size_t placed = 0;
    for (const FleetJob& job : fleet.jobs()) {
        if (job.state == JobState::Placed) {
            ++placed;
            ASSERT_EQ(hosted.count(job.id), 1u);
        } else {
            ASSERT_EQ(hosted.count(job.id), 0u);
        }
    }
    ASSERT_EQ(placed, hosted.size());
}

class PlacementProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PlacementProperty, SlowRandomChurnPreservesInvariants)
{
    const uint64_t seed = GetParam();
    Rng rng(seed * 1000003);

    FleetOptions options;
    options.nodes = int(rng.uniformInt(2, 6));
    options.seed = seed;
    options.max_moves = 2;
    options.clite.max_iterations = 8;
    options.clite.acquisition_starts = 2;
    Fleet fleet(options);

    size_t admitted = 0;
    for (int w = 0; w < 10; ++w) {
        size_t arrivals = size_t(rng.uniformInt(0, 3));
        for (size_t k = 0; k < arrivals; ++k, ++admitted)
            fleet.admit(randomJob(rng));
        // Occasionally shake a placed job's load to provoke drift
        // re-optimizations (and through them evictions).
        if (admitted > 0 && rng.uniform() < 0.3) {
            uint64_t id = uint64_t(
                rng.uniformInt(1, int64_t(fleet.jobs().size())));
            if (fleet.job(id).state == JobState::Placed &&
                fleet.job(id).spec.isLatencyCritical())
                fleet.setJobLoad(id, rng.uniform() < 0.5
                                         ? 1.0
                                         : rng.uniform(0.1, 0.5));
        }
        fleet.tick();
        checkInvariants(fleet);
    }

    FleetSummary s = fleet.summarize();
    EXPECT_EQ(s.jobs_admitted, int(admitted));
    EXPECT_EQ(s.jobs_placed + s.jobs_pending + s.jobs_parked,
              int(admitted));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementProperty,
                         ::testing::Range(uint64_t(1), uint64_t(9)));

TEST(ClusterScheduler, NeverPlacesOnAFullNode)
{
    Rng rng(42);
    ClusterScheduler scheduler;
    for (int trial = 0; trial < 200; ++trial) {
        size_t nodes = size_t(rng.uniformInt(1, 8));
        size_t capacity = size_t(rng.uniformInt(1, 5));
        std::vector<NodeSnapshot> snaps(nodes);
        bool any_free = false;
        for (size_t n = 0; n < nodes; ++n) {
            snaps[n].node = n;
            snaps[n].capacity = capacity;
            snaps[n].job_count =
                size_t(rng.uniformInt(0, int64_t(capacity)));
            snaps[n].lc_load_sum = rng.uniform(0.0, 2.0);
            any_free = any_free || snaps[n].canHost();
        }
        int pick = scheduler.place(workloads::lcJob("memcached", 0.3),
                                   snaps, -1);
        if (!any_free) {
            EXPECT_EQ(pick, -1);
        } else {
            ASSERT_GE(pick, 0);
            ASSERT_LT(size_t(pick), nodes);
            EXPECT_TRUE(snaps[size_t(pick)].canHost());
        }
    }
}

TEST(ClusterScheduler, ExcludedNodeAvoidedUnlessSoleOption)
{
    ClusterScheduler scheduler;
    std::vector<NodeSnapshot> snaps(2);
    for (size_t n = 0; n < 2; ++n) {
        snaps[n].node = n;
        snaps[n].capacity = 4;
        snaps[n].job_count = 1;
    }
    // Node 0 excluded and node 1 free: must pick 1 even though 0 ties.
    EXPECT_EQ(scheduler.place(workloads::bgJob("canneal"), snaps, 0), 1);
    // Node 1 full: the excluded node is the only host left.
    snaps[1].job_count = 4;
    EXPECT_EQ(scheduler.place(workloads::bgJob("canneal"), snaps, 0), 0);
    // Everything full: nowhere.
    snaps[0].job_count = 4;
    EXPECT_EQ(scheduler.place(workloads::bgJob("canneal"), snaps, 0), -1);
}

TEST(ClusterScheduler, LeastLoadedPrefersLightestThenFewestThenLowest)
{
    ClusterScheduler scheduler;
    std::vector<NodeSnapshot> snaps(3);
    for (size_t n = 0; n < 3; ++n) {
        snaps[n].node = n;
        snaps[n].capacity = 10;
    }
    snaps[0].lc_load_sum = 0.5;
    snaps[1].lc_load_sum = 0.2;
    snaps[2].lc_load_sum = 0.2;
    snaps[1].job_count = 3;
    snaps[2].job_count = 2;
    EXPECT_EQ(scheduler.place(workloads::lcJob("xapian", 0.3), snaps, -1),
              2);
}

TEST(ClusterScheduler, PlacementIgnoresObservedScores)
{
    // Observed scores are no input to placement: a scheduler told four
    // windows of random scores and QoS verdicts must place every job
    // where one told only zeroed scores does.
    Rng rng(7);
    for (int trial = 0; trial < 100; ++trial) {
        const size_t nodes = size_t(rng.uniformInt(2, 8));
        std::vector<NodeSnapshot> seen(nodes);
        for (size_t n = 0; n < nodes; ++n) {
            NodeSnapshot& s = seen[n];
            s.node = n;
            s.capacity = 10;
            s.lc_jobs = size_t(rng.uniformInt(0, 4));
            s.bg_jobs = size_t(rng.uniformInt(0, 3));
            s.job_count = s.lc_jobs + s.bg_jobs;
            for (size_t j = 0; j < s.lc_jobs; ++j)
                s.lc_load_sum += rng.uniform(0.1, 0.5);
        }
        const std::vector<NodeSnapshot> zeroed = seen;
        ClusterScheduler told;
        ClusterScheduler blind;
        for (int w = 0; w < 4; ++w) {
            for (NodeSnapshot& s : seen) {
                s.last_score = rng.uniform();
                s.all_qos_met = rng.uniform() < 0.5;
            }
            told.recordWindow(seen);
            blind.recordWindow(zeroed);
        }
        const workloads::JobSpec job = randomJob(rng);
        const int exclude = int(rng.uniformInt(-1, int64_t(nodes) - 1));
        EXPECT_EQ(told.place(job, seen, exclude),
                  blind.place(job, zeroed, exclude))
            << "trial " << trial;
    }
}

} // namespace
} // namespace cluster
} // namespace clite
