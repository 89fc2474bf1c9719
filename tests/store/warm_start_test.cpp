/**
 * @file
 * Snapshot ⇄ controller bridge tests: capture fidelity, job-index
 * remapping across differently-ordered servers, the trusted_feasible
 * rules, and the defensive cold-start fallback on every shape
 * mismatch.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/clite.h"
#include "platform/server.h"
#include "store/warm_start.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

namespace clite {
namespace store {
namespace {

platform::SimulatedServer
makeServer(std::vector<workloads::JobSpec> jobs, uint64_t seed = 3)
{
    return platform::SimulatedServer(
        platform::ServerConfig::xeonSilver4114(), std::move(jobs),
        std::make_unique<workloads::AnalyticModel>(), seed, 0.0);
}

std::vector<workloads::JobSpec>
mixA()
{
    return {
        workloads::lcJob("img-dnn", 0.3),
        workloads::lcJob("memcached", 0.2),
        workloads::bgJob("fluidanimate"),
    };
}

core::CliteOptions
fastClite()
{
    core::CliteOptions o;
    o.max_iterations = 10;
    o.polish_iterations = 2;
    return o;
}

/** Run a real search and capture its snapshot. */
Snapshot
learnedSnapshot(platform::SimulatedServer& server,
                core::ControllerResult* result_out = nullptr)
{
    core::CliteController clite(fastClite());
    core::ControllerResult result = clite.run(server);
    Snapshot snap = captureSnapshot(server, result, *result.best,
                                    ControllerPhase::Steady,
                                    /*incumbent_qos_met=*/true,
                                    /*windows=*/7, /*max_samples=*/64);
    if (result_out != nullptr)
        *result_out = std::move(result);
    return snap;
}

TEST(WarmStartBridge, CaptureRecordsIncumbentAndUsableSamples)
{
    auto server = makeServer(mixA());
    core::ControllerResult result;
    Snapshot snap = learnedSnapshot(server, &result);

    EXPECT_EQ(snap.jobs.size(), 3u);
    EXPECT_EQ(snap.knob_kinds.size(),
              server.config().resourceCount());
    EXPECT_FALSE(snap.incumbent.empty());
    EXPECT_FALSE(snap.samples.empty());
    EXPECT_LE(snap.samples.size(), result.trace.size());
    EXPECT_EQ(snap.windows, 7u);
    // Best-score-first ordering.
    for (size_t i = 1; i < snap.samples.size(); ++i)
        EXPECT_GE(snap.samples[i - 1].score, snap.samples[i].score);
    EXPECT_EQ(snap.signature().hash(), MixSignature::of(server).hash());
}

TEST(WarmStartBridge, SampleCapKeepsTheBestAndTheIncumbent)
{
    auto server = makeServer(mixA());
    core::CliteController clite(fastClite());
    core::ControllerResult result = clite.run(server);
    Snapshot snap = captureSnapshot(server, result, *result.best,
                                    ControllerPhase::Steady, true, 1,
                                    /*max_samples=*/2);
    EXPECT_LE(snap.samples.size(), 2u);
    EXPECT_FALSE(snap.incumbent.empty());
}

TEST(WarmStartBridge, ExactHitOnSameMixIsTrusted)
{
    auto server = makeServer(mixA());
    Snapshot snap = learnedSnapshot(server);

    core::WarmStart warm =
        warmStartFromSnapshot(snap, server, /*exact=*/true);
    ASSERT_FALSE(warm.empty());
    ASSERT_TRUE(warm.incumbent.has_value());
    EXPECT_TRUE(warm.trusted_feasible);
    EXPECT_LE(warm.configs.size(), kWarmStartMaxConfigs);
    for (const platform::Allocation& a : warm.configs) {
        EXPECT_TRUE(a.valid());
        EXPECT_NE(a.key(), warm.incumbent->key()); // deduped
    }
}

TEST(WarmStartBridge, RemappingFollowsJobsAcrossServerOrder)
{
    auto server = makeServer(mixA());
    Snapshot snap = learnedSnapshot(server);

    // The same mix hosted in a different server order: rows must
    // follow the jobs, not the indices.
    std::vector<workloads::JobSpec> shuffled = {
        workloads::bgJob("fluidanimate"),
        workloads::lcJob("memcached", 0.2),
        workloads::lcJob("img-dnn", 0.3),
    };
    auto other = makeServer(shuffled, 11);
    core::WarmStart warm =
        warmStartFromSnapshot(snap, other, /*exact=*/true);
    ASSERT_TRUE(warm.incumbent.has_value());

    // snapshot job j lives at server row j on the original server;
    // find each job's new row by descriptor and compare cell-for-cell.
    const platform::Allocation& inc = *warm.incumbent;
    for (size_t sj = 0; sj < snap.jobs.size(); ++sj) {
        size_t row = size_t(-1);
        for (size_t j = 0; j < other.jobCount(); ++j)
            if (other.job(j).profile.name == snap.jobs[sj].name)
                row = j;
        ASSERT_NE(row, size_t(-1));
        for (size_t r = 0; r < inc.resources(); ++r) {
            const size_t nres = inc.resources();
            EXPECT_EQ(inc.get(row, r), snap.incumbent[sj * nres + r])
                << "job " << snap.jobs[sj].name << " knob " << r;
        }
    }
}

TEST(WarmStartBridge, SimilarMixSeedsConfigsButIsNeverTrusted)
{
    auto server = makeServer(mixA());
    Snapshot snap = learnedSnapshot(server);

    std::vector<workloads::JobSpec> drifted = mixA();
    drifted[0].load_fraction = 0.35;
    auto other = makeServer(drifted, 13);
    core::WarmStart warm =
        warmStartFromSnapshot(snap, other, /*exact=*/false);
    ASSERT_FALSE(warm.empty());
    EXPECT_FALSE(warm.trusted_feasible);
}

TEST(WarmStartBridge, NonSteadyOrViolatingPriorsAreNeverTrusted)
{
    auto server = makeServer(mixA());
    Snapshot snap = learnedSnapshot(server);

    Snapshot searching = snap;
    searching.phase = ControllerPhase::Search;
    EXPECT_FALSE(warmStartFromSnapshot(searching, server, true)
                     .trusted_feasible);

    Snapshot degraded = snap;
    degraded.phase = ControllerPhase::Degraded;
    EXPECT_FALSE(warmStartFromSnapshot(degraded, server, true)
                     .trusted_feasible);

    Snapshot violating = snap;
    violating.incumbent_qos_met = false;
    EXPECT_FALSE(warmStartFromSnapshot(violating, server, true)
                     .trusted_feasible);
}

TEST(WarmStartBridge, ShapeMismatchesFallBackToColdStart)
{
    auto server = makeServer(mixA());
    Snapshot snap = learnedSnapshot(server);

    // Different job multiset.
    std::vector<workloads::JobSpec> other_jobs = mixA();
    other_jobs[1] = workloads::lcJob("xapian", 0.2);
    auto swapped = makeServer(other_jobs, 17);
    EXPECT_TRUE(warmStartFromSnapshot(snap, swapped, true).empty());

    // Different job count.
    std::vector<workloads::JobSpec> bigger = mixA();
    bigger.push_back(workloads::bgJob("canneal"));
    auto grown = makeServer(bigger, 19);
    EXPECT_TRUE(warmStartFromSnapshot(snap, grown, true).empty());

    // Different knob space.
    platform::SimulatedServer all6(
        platform::ServerConfig::xeonSilver4114AllResources(), mixA(),
        std::make_unique<workloads::AnalyticModel>(), 23, 0.0);
    EXPECT_TRUE(warmStartFromSnapshot(snap, all6, true).empty());

    // Cells corrupted out of range: that allocation is dropped rather
    // than seeded.
    Snapshot bad = snap;
    bad.incumbent.assign(bad.incumbent.size(), 1000000);
    core::WarmStart warm = warmStartFromSnapshot(bad, server, true);
    EXPECT_FALSE(warm.incumbent.has_value());
    EXPECT_FALSE(warm.trusted_feasible);
}

TEST(WarmStartBridge, WarmSeedsAreAcceptedByTheController)
{
    auto server = makeServer(mixA());
    Snapshot snap = learnedSnapshot(server);
    core::WarmStart warm =
        warmStartFromSnapshot(snap, server, /*exact=*/true);
    ASSERT_FALSE(warm.empty());

    core::CliteController clite(fastClite());
    core::ControllerResult warm_result = clite.runWarm(server, warm);
    EXPECT_TRUE(warm_result.best.has_value());
}

} // namespace
} // namespace store
} // namespace clite
