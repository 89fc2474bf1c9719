/**
 * @file
 * Accuracy contract of the event-budgeted (coarse) measurement mode.
 *
 * A budget caps the expected number of measured requests per window by
 * shortening the measured span to min(window, budget / λ) — the
 * estimate stays unbiased (it is exactly an unbudgeted measurement of
 * the shorter window) but gets noisier as the budget shrinks. The
 * contract documented in docs/MODEL.md and pinned here:
 *
 *  - semantics: the budgeted result IS the full-window code path run
 *    over effectiveWindow(), bit for bit, and budgets below
 *    kMinEventBudget clamp up to it;
 *  - accuracy: at a 2000-request budget, the p95 of a stable station
 *    (utilization <= 0.9) stays within 25% of the unbudgeted p95 when
 *    both are averaged over 8 seeds — the tolerance QoS decisions in
 *    coarse mode are designed against;
 *  - sanity: a fig06-style QPS sweep under the coarse budget still
 *    produces the hockey-stick — tail latency non-decreasing-ish in
 *    load and exploding near saturation — so load curves ranked by a
 *    coarse model rank the same way as fine ones.
 *
 * Both accuracy tests run stations fast enough that the budget binds at
 * every point they check (λ·window > 2000, asserted).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "sim/queueing.h"

namespace clite {
namespace sim {
namespace {

/** The coarse budget of the accuracy contract (FleetOptions default). */
constexpr uint64_t kCoarseBudget = 2000;

TEST(EventBudget, EffectiveWindowSemantics)
{
    // Unlimited budget or no arrivals: the full window.
    EXPECT_DOUBLE_EQ(effectiveWindow(2.0, 500.0, 0), 2.0);
    EXPECT_DOUBLE_EQ(effectiveWindow(2.0, 0.0, 1000), 2.0);
    // Budget above lambda * window: the full window.
    EXPECT_DOUBLE_EQ(effectiveWindow(2.0, 500.0, 10000), 2.0);
    // Binding budget: budget / lambda.
    EXPECT_DOUBLE_EQ(effectiveWindow(2.0, 500.0, 200), 0.4);
    // Budgets below the floor clamp up to kMinEventBudget.
    EXPECT_DOUBLE_EQ(effectiveWindow(2.0, 500.0, 1),
                     double(kMinEventBudget) / 500.0);
}

/**
 * A budgeted measurement is bit-identical to the unbudgeted
 * measurement of the effectiveWindow() span: coarse mode adds no
 * second code path, only a shorter window.
 */
TEST(EventBudget, BudgetedEqualsShorterUnbudgetedWindow)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const double lambda = 400.0, window = 2.0;
        const uint64_t budget = 256;
        Rng rng_budget(seed);
        Rng rng_short(seed);
        TailMeasurement budgeted = measureStation(
            3, lambda, 0.006, 0.5, window, rng_budget, budget);
        TailMeasurement shorter = measureStation(
            3, lambda, 0.006, 0.5, effectiveWindow(window, lambda, budget),
            rng_short);
        EXPECT_EQ(std::memcmp(&budgeted, &shorter, sizeof budgeted), 0)
            << "seed " << seed;
    }
}

/**
 * The documented coarse-mode accuracy: p95 under a 2000-request budget
 * within 25% of the unbudgeted p95, seed-averaged, for stable stations
 * of 2, 4 and 8 servers at high-but-stable utilization.
 */
TEST(EventBudget, CoarseP95WithinDocumentedTolerance)
{
    const double mean_service = 0.001, rho = 0.9, window = 2.0;
    for (int servers : {2, 4, 8}) {
        const double lambda = rho * servers / mean_service;
        ASSERT_LT(effectiveWindow(window, lambda, kCoarseBudget), window)
            << "the budget must bind at " << servers << " servers";
        double fine_sum = 0.0, coarse_sum = 0.0;
        const int seeds = 8;
        for (uint64_t seed = 1; seed <= seeds; ++seed) {
            Rng rng_fine(seed);
            Rng rng_coarse(seed);
            fine_sum += measureStation(servers, lambda, mean_service, 1.0,
                                       window, rng_fine)
                            .p95;
            coarse_sum += measureStation(servers, lambda, mean_service, 1.0,
                                         window, rng_coarse, kCoarseBudget)
                              .p95;
        }
        const double fine = fine_sum / seeds;
        const double coarse = coarse_sum / seeds;
        EXPECT_GT(fine, 0.0);
        EXPECT_NEAR(coarse, fine, 0.25 * fine)
            << "servers " << servers << ": coarse p95 " << coarse
            << " vs fine " << fine;
    }
}

/**
 * Fig. 6-style sanity sweep under the coarse budget: tail latency as a
 * function of offered QPS keeps the shape QoS reasoning relies on —
 * near-flat at low load, finite everywhere, and clearly exploding by
 * rho ~ 0.95 relative to the low-load tail.
 */
TEST(EventBudget, CoarseLoadSweepKeepsHockeyStick)
{
    const int servers = 4;
    const double mean_service = 0.00025, window = 2.0;
    const double capacity = servers / mean_service; // 16000/s
    const std::vector<double> rhos = {0.1, 0.3, 0.5, 0.7, 0.9, 0.95};
    std::vector<double> p95(rhos.size(), 0.0);
    const int seeds = 4;
    for (size_t i = 0; i < rhos.size(); ++i) {
        const double lambda = rhos[i] * capacity;
        ASSERT_LT(effectiveWindow(window, lambda, kCoarseBudget), window)
            << "the budget must bind at rho " << rhos[i];
        for (uint64_t seed = 1; seed <= seeds; ++seed) {
            Rng rng(seed);
            p95[i] += measureStation(servers, lambda, mean_service, 1.0,
                                     window, rng, kCoarseBudget)
                          .p95;
        }
        p95[i] /= seeds;
        EXPECT_GT(p95[i], 0.0) << "rho " << rhos[i];
        // Tail can never beat the pure service tail by much; guard
        // against degenerate (empty-window) measurements.
        EXPECT_GT(p95[i], 0.5 * mean_service) << "rho " << rhos[i];
    }
    // Monotone-ish: each step may wobble within seed noise, but the
    // curve must rise overall and the knee must be pronounced.
    EXPECT_GT(p95.back(), 2.0 * p95.front());
    EXPECT_GT(p95[4], p95[0]); // rho 0.9 above rho 0.1
}

} // namespace
} // namespace sim
} // namespace clite
