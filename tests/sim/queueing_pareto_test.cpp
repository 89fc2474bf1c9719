/**
 * @file
 * Pins the bounded-Pareto service kind of the DES (sim/queueing.h):
 *
 *  - the fast path reproduces measureStationReference bit for bit
 *    across seeds and budgets;
 *  - bounded-Pareto service really is heavy-tailed (p99/mean well
 *    above the light-tailed kinds at the same utilization) and its
 *    sampler's moments match the closed form within tolerance;
 *  - invalid shape parameters throw, at zero load too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/rng.h"
#include "reference_station.h"
#include "sim/queueing.h"
#include "stats/distributions.h"

namespace clite {
namespace sim {
namespace {

/** Bitwise equality for doubles (NaN-safe, distinguishes -0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectIdentical(const TailMeasurement& a, const TailMeasurement& b,
                uint64_t seed)
{
    EXPECT_TRUE(sameBits(a.p95, b.p95)) << "p95 seed " << seed;
    EXPECT_TRUE(sameBits(a.p99, b.p99)) << "p99 seed " << seed;
    EXPECT_TRUE(sameBits(a.mean, b.mean)) << "mean seed " << seed;
    EXPECT_EQ(a.completed, b.completed) << "completed seed " << seed;
    EXPECT_TRUE(sameBits(a.throughput, b.throughput))
        << "throughput seed " << seed;
}

constexpr int kServers = 4;
constexpr double kArrivalRate = 2000.0;
constexpr double kMeanService = 0.0015;
constexpr double kWarmup = 0.5;
constexpr double kWindow = 2.0;

ServiceModel
model(ServiceModel::Kind kind)
{
    ServiceModel m;
    m.kind = kind;
    m.mean_service = kMeanService;
    return m;
}

TEST(ServiceModel, ParetoFastPathMatchesReference)
{
    for (uint64_t seed : {3ull, 77ull, 5001ull}) {
        for (uint64_t budget : {uint64_t(0), uint64_t(500)}) {
            ServiceModel m = model(ServiceModel::Kind::BoundedPareto);
            Rng rng_fast(seed), rng_ref(seed);
            TailMeasurement fast =
                measureStation(kServers, kArrivalRate, m, kWarmup,
                               kWindow, rng_fast, budget);
            TailMeasurement ref = measureStationReference(
                kServers, kArrivalRate, m, kWarmup, kWindow, rng_ref,
                budget);
            expectIdentical(fast, ref, seed);
        }
    }
}

TEST(ServiceModel, BudgetedParetoEqualsShorterWindow)
{
    // A budgeted measurement is defined as the unbudgeted measurement
    // over effectiveWindow() — bit-identical, not merely close.
    const uint64_t budget = 800;
    ServiceModel m = model(ServiceModel::Kind::BoundedPareto);
    Rng rng_budget(9), rng_window(9);
    TailMeasurement budgeted =
        measureStation(kServers, kArrivalRate, m, kWarmup, kWindow,
                       rng_budget, budget);
    TailMeasurement windowed = measureStation(
        kServers, kArrivalRate, m, kWarmup,
        effectiveWindow(kWindow, kArrivalRate, budget), rng_window);
    expectIdentical(budgeted, windowed, 9);
    EXPECT_LE(budgeted.completed, size_t(budget + budget / 4));
}

TEST(ServiceModel, ParetoTailIsHeavierThanLightTailedKinds)
{
    // Same utilization, same mean service time: the heavy-tailed mix
    // must show a fatter p99-to-mean ratio than both light tails.
    auto p99OverMean = [](ServiceModel::Kind kind) {
        ServiceModel m;
        m.kind = kind;
        m.mean_service = kMeanService;
        m.pareto_alpha = 1.3;
        m.pareto_tail_ratio = 1000.0;
        Rng rng(4242);
        TailMeasurement t = measureStation(kServers, kArrivalRate, m,
                                           kWarmup, 4.0, rng);
        EXPECT_GT(t.completed, 0u);
        return t.p99 / t.mean;
    };
    double pareto = p99OverMean(ServiceModel::Kind::BoundedPareto);
    double lognormal = p99OverMean(ServiceModel::Kind::LogNormal);
    double exponential = p99OverMean(ServiceModel::Kind::Exponential);
    EXPECT_GT(pareto, lognormal);
    EXPECT_GT(pareto, exponential);
}

TEST(ServiceModel, ParetoValidation)
{
    // An invalid model throws whatever the load: validation runs
    // before the zero-load early return.
    for (double rate : {kArrivalRate, 0.0}) {
        Rng rng(1);
        ServiceModel m = model(ServiceModel::Kind::BoundedPareto);
        m.pareto_alpha = 1.0; // mean diverges as alpha -> 1
        EXPECT_THROW(measureStation(kServers, rate, m, kWarmup, kWindow,
                                    rng),
                     Error)
            << "rate " << rate;
        m = model(ServiceModel::Kind::BoundedPareto);
        m.pareto_tail_ratio = 1.0; // degenerate support
        EXPECT_THROW(measureStation(kServers, rate, m, kWarmup, kWindow,
                                    rng),
                     Error)
            << "rate " << rate;
        m = model(ServiceModel::Kind::LogNormal);
        m.sigma = 0.0; // LogNormal kind requires a positive sigma
        EXPECT_THROW(measureStation(kServers, rate, m, kWarmup, kWindow,
                                    rng),
                     Error)
            << "rate " << rate;
    }
}

TEST(BoundedPareto, SampledMomentsMatchClosedForm)
{
    // Drive the inverse CDF with a deterministic uniform grid: the
    // grid mean converges to the closed-form mean (midpoint rule over
    // the quantile function).
    const double alpha = 1.5;
    const double lower =
        stats::boundedParetoLowerForMean(kMeanService, alpha, 100.0);
    const double upper = lower * 100.0;
    const int n = 200000;
    double sum = 0.0;
    double max_seen = 0.0;
    for (int i = 0; i < n; ++i) {
        double u = (double(i) + 0.5) / double(n);
        double x = stats::boundedParetoQuantile(u, alpha, lower, upper);
        EXPECT_GE(x, lower);
        EXPECT_LE(x, upper * (1.0 + 1e-12));
        sum += x;
        max_seen = std::max(max_seen, x);
    }
    EXPECT_NEAR(sum / n, kMeanService, 0.01 * kMeanService);
    EXPECT_NEAR(sum / n, stats::boundedParetoMean(alpha, lower, upper),
                0.01 * kMeanService);
    // The tail really reaches toward H (heavy-tailedness is the point).
    EXPECT_GT(max_seen, 0.5 * upper);
    // And the mean-solver round-trips.
    EXPECT_NEAR(stats::boundedParetoMean(alpha, lower, upper),
                kMeanService, 1e-12);
}

} // namespace
} // namespace sim
} // namespace clite
