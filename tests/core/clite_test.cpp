/**
 * @file
 * Unit and integration tests for the CLITE controller.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/clite.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

namespace clite {
namespace core {
namespace {

platform::SimulatedServer
makeServer(std::vector<workloads::JobSpec> jobs, uint64_t seed = 5,
           double noise = 0.02)
{
    return platform::SimulatedServer(
        platform::ServerConfig::xeonSilver4114(), std::move(jobs),
        std::make_unique<workloads::AnalyticModel>(), seed, noise);
}

CliteOptions
fastOptions()
{
    CliteOptions o;
    o.max_iterations = 25;
    o.acquisition_starts = 6;
    return o;
}

TEST(Clite, FindsFeasibleConfigurationOnEasyMix)
{
    auto server = makeServer({workloads::lcJob("img-dnn", 0.2),
                              workloads::lcJob("memcached", 0.2),
                              workloads::bgJob("swaptions")});
    CliteController clite(fastOptions());
    ControllerResult r = clite.run(server);
    ASSERT_TRUE(r.best.has_value());
    EXPECT_TRUE(r.feasible);
    EXPECT_GT(r.best_score, 0.5);
    // Ground truth agrees (the search wasn't fooled by noise).
    auto truth = server.observeNoiseless(*r.best);
    EXPECT_TRUE(scoreObservations(truth).all_qos_met);
}

TEST(Clite, BootstrapContainsEqualShareAndExtrema)
{
    auto server = makeServer({workloads::lcJob("img-dnn", 0.2),
                              workloads::lcJob("memcached", 0.2),
                              workloads::bgJob("swaptions")});
    CliteController clite(fastOptions());
    ControllerResult r = clite.run(server);
    ASSERT_GE(r.trace.size(), 4u);
    platform::Allocation equal =
        platform::Allocation::equalShare(3, server.config());
    EXPECT_TRUE(r.trace[0].alloc == equal);
    for (size_t j = 0; j < 3; ++j) {
        platform::Allocation ext =
            platform::Allocation::maxFor(j, 3, server.config());
        EXPECT_TRUE(r.trace[1 + j].alloc == ext) << "extremum " << j;
    }
}

TEST(Clite, NeverSamplesTheSameConfigurationTwice)
{
    auto server = makeServer({workloads::lcJob("img-dnn", 0.3),
                              workloads::lcJob("masstree", 0.3),
                              workloads::bgJob("streamcluster")});
    CliteController clite(fastOptions());
    ControllerResult r = clite.run(server);
    std::set<std::string> keys;
    for (const auto& rec : r.trace)
        EXPECT_TRUE(keys.insert(rec.alloc.key()).second)
            << "duplicate sample: " << rec.alloc.key();
}

TEST(Clite, EverySampledAllocationIsValid)
{
    auto server = makeServer({workloads::lcJob("memcached", 0.4),
                              workloads::lcJob("xapian", 0.3),
                              workloads::bgJob("canneal")});
    CliteController clite(fastOptions());
    ControllerResult r = clite.run(server);
    for (const auto& rec : r.trace)
        EXPECT_TRUE(rec.alloc.valid());
}

TEST(Clite, DetectsInfeasibleColocationFromExtrema)
{
    // Three LC jobs at full load can never fit together: the per-job
    // maximum-allocation bootstrap samples expose that immediately.
    auto server = makeServer({workloads::lcJob("img-dnn", 1.0),
                              workloads::lcJob("masstree", 1.0),
                              workloads::lcJob("memcached", 1.0)});
    CliteController clite(fastOptions());
    ControllerResult r = clite.run(server);
    EXPECT_TRUE(r.infeasible_detected);
    EXPECT_FALSE(r.feasible);
    // No BO cycles wasted: bootstrap samples only.
    EXPECT_LE(r.samples, 4);
}

TEST(Clite, SingleJobGetsEverything)
{
    auto server = makeServer({workloads::lcJob("specjbb", 0.5)});
    CliteController clite(fastOptions());
    ControllerResult r = clite.run(server);
    ASSERT_TRUE(r.best.has_value());
    EXPECT_TRUE(r.feasible);
    // Best possible: the job owns the machine (maxFor(0) == all).
    platform::Allocation all =
        platform::Allocation::maxFor(0, 1, server.config());
    EXPECT_TRUE(*r.best == all);
}

TEST(Clite, RespectsIterationCap)
{
    auto server = makeServer({workloads::lcJob("img-dnn", 0.3),
                              workloads::lcJob("memcached", 0.3),
                              workloads::bgJob("freqmine")});
    CliteOptions o = fastOptions();
    o.max_iterations = 5;
    o.min_iterations = 0;
    o.polish_iterations = 2;
    CliteController clite(o);
    ControllerResult r = clite.run(server);
    // Bootstrap (4) + at most 5 BO samples + 2 polish samples.
    EXPECT_LE(r.samples, 11);
}

TEST(Clite, ServerLeftRunningBestConfiguration)
{
    auto server = makeServer({workloads::lcJob("img-dnn", 0.2),
                              workloads::lcJob("memcached", 0.2),
                              workloads::bgJob("swaptions")});
    CliteController clite(fastOptions());
    ControllerResult r = clite.run(server);
    EXPECT_TRUE(server.currentAllocation() == *r.best);
}

TEST(Clite, ReoptimizeSeedsWithIncumbent)
{
    auto server = makeServer({workloads::lcJob("img-dnn", 0.1),
                              workloads::lcJob("memcached", 0.1),
                              workloads::bgJob("fluidanimate")});
    CliteController clite(fastOptions());
    ControllerResult first = clite.run(server);
    ASSERT_TRUE(first.feasible);

    server.setLoad(1, 0.3);
    ControllerResult second = clite.reoptimize(server, *first.best);
    ASSERT_TRUE(second.best.has_value());
    // The incumbent is the first sample of the re-optimization.
    EXPECT_TRUE(second.trace[0].alloc == *first.best);
    EXPECT_TRUE(second.feasible);
}

TEST(Clite, AblationsRunEndToEnd)
{
    for (auto tweak : {0, 1, 2, 3}) {
        CliteOptions o = fastOptions();
        o.max_iterations = 10;
        switch (tweak) {
          case 0: o.dropout = false; break;
          case 1: o.informed_bootstrap = false; break;
          case 2: o.kernel = "rbf"; break;
          case 3: o.acquisition = "ucb"; break;
        }
        auto server = makeServer({workloads::lcJob("img-dnn", 0.2),
                                  workloads::lcJob("memcached", 0.2),
                                  workloads::bgJob("swaptions")});
        CliteController clite(o);
        ControllerResult r = clite.run(server);
        EXPECT_TRUE(r.best.has_value()) << "tweak " << tweak;
    }
}

TEST(Clite, OptionValidation)
{
    CliteOptions bad;
    bad.max_iterations = -1;
    EXPECT_THROW(CliteController c(bad), Error);
    bad = CliteOptions{};
    bad.termination_threshold = -0.1;
    EXPECT_THROW(CliteController c(bad), Error);
    bad = CliteOptions{};
    bad.acquisition_starts = 0;
    EXPECT_THROW(CliteController c(bad), Error);
    bad = CliteOptions{};
    bad.dropout_random_prob = 1.5;
    EXPECT_THROW(CliteController c(bad), Error);
}

/**
 * One library-default search (eight acquisition starts, dropout on) on
 * a DES-backed four-job server at @p threads pool threads; with
 * @p event_budget > 0 the search probes measure coarse. No memcached,
 * so the DES stays cheap under sanitizers.
 */
ControllerResult
runDesSearch(int threads, uint64_t event_budget)
{
    setGlobalThreadCount(threads);
    platform::SimulatedServer server(
        platform::ServerConfig::xeonSilver4114(),
        {workloads::lcJob("img-dnn", 0.3), workloads::lcJob("xapian", 0.3),
         workloads::lcJob("specjbb", 0.3), workloads::bgJob("streamcluster")},
        std::make_unique<workloads::QueueingSimModel>(0.2, 1.0), 5, 0.02);
    CliteOptions o;
    o.search_event_budget = event_budget;
    return CliteController(o).run(server);
}

TEST(Clite, DesSearchBitIdenticalAcrossThreadCounts)
{
    const int saved = globalPool().threadCount();
    for (uint64_t event_budget : {uint64_t(0), uint64_t(2000)}) {
        const ControllerResult serial = runDesSearch(1, event_budget);
        for (int threads : {2, 4, 8}) {
            const ControllerResult par = runDesSearch(threads, event_budget);
            ASSERT_EQ(par.trace.size(), serial.trace.size())
                << "threads=" << threads << " budget=" << event_budget;
            for (size_t i = 0; i < serial.trace.size(); ++i) {
                const SampleRecord& a = serial.trace[i];
                const SampleRecord& b = par.trace[i];
                EXPECT_TRUE(a.alloc == b.alloc)
                    << "threads=" << threads << " sample=" << i;
                EXPECT_EQ(a.score, b.score)
                    << "threads=" << threads << " sample=" << i;
                EXPECT_EQ(a.status, b.status)
                    << "threads=" << threads << " sample=" << i;
                EXPECT_EQ(a.all_qos_met, b.all_qos_met)
                    << "threads=" << threads << " sample=" << i;
            }
            EXPECT_EQ(par.best_score, serial.best_score)
                << "threads=" << threads << " budget=" << event_budget;
            ASSERT_EQ(par.best.has_value(), serial.best.has_value());
            if (serial.best.has_value()) {
                EXPECT_TRUE(*par.best == *serial.best)
                    << "threads=" << threads << " budget=" << event_budget;
            }
        }
    }
    setGlobalThreadCount(saved);
}

TEST(ControllerResult, FirstFeasibleSampleIndex)
{
    auto server = makeServer({workloads::lcJob("img-dnn", 0.2),
                              workloads::lcJob("memcached", 0.2),
                              workloads::bgJob("swaptions")});
    CliteController clite(fastOptions());
    ControllerResult r = clite.run(server);
    int idx = r.firstFeasibleSample();
    ASSERT_GE(idx, 0);
    EXPECT_TRUE(r.trace[size_t(idx)].all_qos_met);
    for (int i = 0; i < idx; ++i)
        EXPECT_FALSE(r.trace[size_t(i)].all_qos_met);
}

} // namespace
} // namespace core
} // namespace clite
