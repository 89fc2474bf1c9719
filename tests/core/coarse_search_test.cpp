/**
 * @file
 * Coarse-mode search probes (CliteOptions::search_event_budget):
 *
 *  - with the DES backend, a positive budget measures search probe
 *    windows coarse (counted in ControllerResult::coarse_windows) and
 *    is restored to 0 before validation and on every exit path, so
 *    windows observed after the search — monitoring ticks, checkpoint
 *    references — always measure fine;
 *  - the analytic backend has no event bill: the knob is refused and
 *    the search is bit-identical with it on or off;
 *  - an unbudgeted run never counts a coarse window.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/clite.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

namespace clite {
namespace core {
namespace {

platform::SimulatedServer
makeDesServer(std::vector<workloads::JobSpec> jobs, uint64_t seed = 5)
{
    return platform::SimulatedServer(
        platform::ServerConfig::xeonSilver4114(), std::move(jobs),
        std::make_unique<workloads::QueueingSimModel>(0.2, 2.0), seed,
        0.02);
}

platform::SimulatedServer
makeAnalyticServer(std::vector<workloads::JobSpec> jobs, uint64_t seed = 5)
{
    return platform::SimulatedServer(
        platform::ServerConfig::xeonSilver4114(), std::move(jobs),
        std::make_unique<workloads::AnalyticModel>(), seed, 0.02);
}

CliteOptions
fastOptions()
{
    CliteOptions o;
    o.max_iterations = 8;
    o.polish_iterations = 2;
    o.acquisition_starts = 4;
    return o;
}

TEST(CoarseSearch, DesSearchCountsCoarseWindowsAndRestoresFineMode)
{
    auto server = makeDesServer({workloads::lcJob("img-dnn", 0.4),
                                 workloads::bgJob("streamcluster")});
    CliteOptions o = fastOptions();
    o.search_event_budget = 2000;
    CliteController controller(o);
    ControllerResult result = controller.run(server);

    // Every search probe (and nothing else) measured coarse: the
    // validation re-measurements happen after the guard releases and
    // never enter the trace.
    EXPECT_EQ(result.coarse_windows, uint64_t(result.samples));
    EXPECT_GT(result.coarse_windows, 0u);
    // The budget is restored on exit — monitoring windows observed
    // from here on are fine-mode.
    EXPECT_EQ(server.measurementEventBudget(), 0u);
    EXPECT_TRUE(result.best.has_value());
}

TEST(CoarseSearch, UnbudgetedDesSearchCountsNothingCoarse)
{
    auto server = makeDesServer({workloads::lcJob("img-dnn", 0.4),
                                 workloads::bgJob("streamcluster")});
    CliteController controller(fastOptions());
    ControllerResult result = controller.run(server);
    EXPECT_EQ(result.coarse_windows, 0u);
    EXPECT_EQ(server.measurementEventBudget(), 0u);
}

TEST(CoarseSearch, AnalyticBackendRefusesBudgetAndIsBitIdentical)
{
    auto plain_server =
        makeAnalyticServer({workloads::lcJob("img-dnn", 0.3),
                            workloads::bgJob("streamcluster")});
    CliteController plain(fastOptions());
    ControllerResult plain_result = plain.run(plain_server);

    auto budget_server =
        makeAnalyticServer({workloads::lcJob("img-dnn", 0.3),
                            workloads::bgJob("streamcluster")});
    CliteOptions o = fastOptions();
    o.search_event_budget = 2000;
    CliteController budgeted(o);
    ControllerResult budget_result = budgeted.run(budget_server);

    EXPECT_FALSE(budget_server.setMeasurementEventBudget(2000));
    EXPECT_EQ(budget_result.coarse_windows, 0u);
    EXPECT_EQ(budget_result.samples, plain_result.samples);
    EXPECT_EQ(budget_result.best_score, plain_result.best_score);
    ASSERT_TRUE(budget_result.best.has_value());
    ASSERT_TRUE(plain_result.best.has_value());
    EXPECT_TRUE(*budget_result.best == *plain_result.best);
}

TEST(CoarseSearch, RefitCountersAreFilled)
{
    // With the EI termination and the polish phase off, a search runs
    // all n BO iterations and refits the hyper-parameters at
    // iterations 0, 3, 6, ...: ceil(n / 3) refits.
    for (int n : {1, 3, 4, 7, 10}) {
        SCOPED_TRACE(n);
        auto server =
            makeAnalyticServer({workloads::lcJob("img-dnn", 0.3),
                                workloads::bgJob("streamcluster")});
        CliteOptions o = fastOptions();
        o.max_iterations = n;
        o.polish_iterations = 0;
        o.termination_threshold = 0.0;
        CliteController controller(o);
        ControllerResult result = controller.run(server);
        // Equal share and one extremum per job, then one probe per
        // BO iteration.
        ASSERT_EQ(result.trace.size(), size_t(3 + n));
        EXPECT_EQ(result.refits, uint64_t((n + 2) / 3));
        EXPECT_GT(result.probe_evals, 0u);
        EXPECT_EQ(result.warm_probe_hits, 0u);
    }
}

} // namespace
} // namespace core
} // namespace clite
