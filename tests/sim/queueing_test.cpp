/**
 * @file
 * Unit and property tests for the queueing station, including the
 * cross-validation of the DES against the closed-form M/M/c results —
 * the consistency contract between the two performance-model backends.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "reference_station.h"
#include "sim/queueing.h"
#include "stats/distributions.h"

namespace clite {
namespace sim {
namespace {

TEST(QueueingStation, NoArrivalsNoCompletions)
{
    Rng rng(3);
    TailMeasurement m = measureStation(2, 0.0, 0.01, 0.5, 2.0, rng);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
}

TEST(QueueingStation, ThroughputMatchesOfferedLoadWhenStable)
{
    Rng rng(5);
    // lambda = 200/s, capacity = 4 / 0.01 = 400/s.
    TailMeasurement m = measureStation(4, 200.0, 0.01, 2.0, 20.0, rng);
    EXPECT_NEAR(m.throughput, 200.0, 12.0);
}

struct MmcCase
{
    int servers;
    double rho;
    /** Relative tolerance of the seed-averaged p95 (see below). */
    double mean_tol;
};

class DesVsAnalytic : public ::testing::TestWithParam<MmcCase>
{
};

TEST_P(DesVsAnalytic, P95WithinTolerance)
{
    const MmcCase c = GetParam();
    const double mu = 100.0; // per-server rate
    const double lambda = c.rho * c.servers * mu;
    Rng rng(uint64_t(c.servers) * 100 + uint64_t(c.rho * 100));
    // Long window so the empirical percentile is tight.
    TailMeasurement m =
        measureStation(c.servers, lambda, 1.0 / mu, 5.0, 60.0, rng);
    double expect = stats::mmcResponseQuantile(c.servers, lambda, mu, 0.95);
    EXPECT_NEAR(m.p95, expect, 0.15 * expect)
        << "c=" << c.servers << " rho=" << c.rho;
}

/**
 * The same cases averaged over 32 seeds, so the comparison resolves a
 * shift in the simulated queue, not one window's sampling error. Each
 * tolerance is four standard errors of the 32-seed mean, measured on
 * the event-driven simulator that drew each service time at its start
 * of service, rounded up to half a percent. The FCFS recursion draws
 * each service at arrival instead; it must stay inside the band the
 * event loop's own spread sets.
 */
TEST_P(DesVsAnalytic, SeedAveragedP95WithinStandardErrors)
{
    const MmcCase c = GetParam();
    const double mu = 100.0;
    const double lambda = c.rho * c.servers * mu;
    const int seeds = 32;
    double sum = 0.0;
    for (int s = 1; s <= seeds; ++s) {
        Rng rng(uint64_t(c.servers) * 100 + uint64_t(c.rho * 100) +
                1000 * uint64_t(s));
        sum += measureStation(c.servers, lambda, 1.0 / mu, 5.0, 60.0, rng).p95;
    }
    double expect = stats::mmcResponseQuantile(c.servers, lambda, mu, 0.95);
    EXPECT_NEAR(sum / seeds, expect, c.mean_tol * expect)
        << "c=" << c.servers << " rho=" << c.rho;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DesVsAnalytic,
    ::testing::Values(MmcCase{1, 0.3, 0.045}, MmcCase{1, 0.7, 0.075},
                      MmcCase{2, 0.5, 0.03}, MmcCase{4, 0.6, 0.015},
                      MmcCase{8, 0.8, 0.015}, MmcCase{10, 0.45, 0.01}));

/**
 * The start state follows the M/M/c stationary law: over many draws
 * the busy-server count averages the offered load a (Little's law for
 * the servers), all servers are busy with Erlang-C probability, and
 * the line averages Erlang-C · ρ / (1 − ρ), each within four standard
 * errors. Huge server counts stay finite and in range, and a station
 * at or above the knee has no stationary occupancy to draw.
 */
TEST(QueueingStation, StationaryOccupancyFollowsTheMmcLaw)
{
    struct Case
    {
        int servers;
        double offered_load;
    };
    const int draws = 200000;
    for (Case c : {Case{1, 0.5}, Case{1, 0.95}, Case{3, 2.5}, Case{8, 4.0},
                   Case{20, 19.5}, Case{200, 150.0}}) {
        const double rho = c.offered_load / c.servers;
        const double pq = stats::erlangC(c.servers, c.offered_load);
        Rng rng(uint64_t(c.servers) * 1000 + uint64_t(rho * 100));
        double busy = 0.0, busy2 = 0.0, full = 0.0, wait = 0.0, wait2 = 0.0;
        for (int i = 0; i < draws; ++i) {
            const double e_branch = rng.exponential(1.0);
            const double e_count = rng.exponential(1.0);
            StationOccupancy o = stationaryOccupancy(
                c.servers, c.offered_load, e_branch, e_count);
            ASSERT_GE(o.busy, 0);
            ASSERT_LE(o.busy, c.servers);
            ASSERT_TRUE(o.waiting == 0 || o.busy == c.servers);
            busy += o.busy;
            busy2 += double(o.busy) * o.busy;
            full += o.busy == c.servers;
            wait += double(o.waiting);
            wait2 += double(o.waiting) * double(o.waiting);
        }
        auto se = [&](double sum, double sum2) {
            const double mean = sum / draws;
            return std::sqrt((sum2 / draws - mean * mean) / draws);
        };
        const std::string label = "c=" + std::to_string(c.servers) +
                                  " a=" + std::to_string(c.offered_load);
        EXPECT_NEAR(busy / draws, c.offered_load, 4.0 * se(busy, busy2))
            << label;
        EXPECT_NEAR(full / draws, pq,
                    4.0 * std::sqrt(pq * (1.0 - pq) / draws))
            << label;
        EXPECT_NEAR(wait / draws, pq * rho / (1.0 - rho),
                    4.0 * se(wait, wait2) + 1e-12)
            << label;
    }
    EXPECT_THROW(stationaryOccupancy(1, kRhoKnee, 1.0, 1.0), Error);
    EXPECT_THROW(stationaryOccupancy(2, 3.0, 1.0, 1.0), Error);
    EXPECT_THROW(stationaryOccupancy(0, 0.5, 1.0, 1.0), Error);
    for (int servers : {100000, 1000000}) {
        for (double rho : {1e-6, 0.5, 0.99}) {
            for (double e : {0.0, 0.7, 40.0}) {
                StationOccupancy o =
                    stationaryOccupancy(servers, rho * servers, e, e);
                EXPECT_GE(o.busy, 0);
                EXPECT_LE(o.busy, servers);
            }
        }
    }
}

/**
 * Windows near the knee read the stationary mean response: one server
 * at ρ 0.95 with 10 ms mean service (a stationary mean of 200 ms), over
 * 2000 windows of a 64-request budget, each starting in its own
 * stationary state. The responses are pooled, Σ mean·completed /
 * Σ completed: a per-window mean divides two random sums and reads
 * low. Each window is independent, so it serves as one batch of a
 * batch-means standard error, and the tolerance is four of those. A
 * window that starts empty after a 1 s warm-up reads about half the
 * stationary mean here, because at this load the queue relaxes on a
 * time scale of 1/(μ(1 − √ρ)²), about 16 s.
 */
TEST(QueueingStation, PooledMeanResponseNearTheKneeIsStationary)
{
    const double mean_service = 0.01, rho = 0.95;
    const double lambda = rho / mean_service;
    const int windows = 2000;
    std::vector<double> sums, counts;
    double total_sum = 0.0, total_count = 0.0;
    for (uint64_t seed = 1; seed <= uint64_t(windows); ++seed) {
        Rng rng(seed);
        TailMeasurement m =
            measureStation(1, lambda, mean_service, 1.0, 2.0, rng, 64);
        sums.push_back(m.mean * double(m.completed));
        counts.push_back(double(m.completed));
        total_sum += sums.back();
        total_count += counts.back();
    }
    const double pooled = total_sum / total_count;
    double var = 0.0;
    for (int w = 0; w < windows; ++w) {
        const double dev = sums[size_t(w)] - pooled * counts[size_t(w)];
        var += dev * dev;
    }
    var /= double(windows - 1);
    const double se =
        std::sqrt(var / windows) / (total_count / double(windows));
    const double expect =
        stats::mmcMeanResponse(1, lambda, 1.0 / mean_service);
    // The test can tell a biased window from an unbiased one.
    EXPECT_LT(se, 0.05 * expect);
    EXPECT_NEAR(pooled, expect, 4.0 * se)
        << "pooled mean " << pooled << " standard error " << se;
}

TEST(QueueingStation, OverloadGrowsLatency)
{
    Rng rng(11);
    TailMeasurement stable = measureStation(2, 100.0, 0.01, 1.0, 10.0, rng);
    TailMeasurement overloaded =
        measureStation(2, 400.0, 0.01, 1.0, 10.0, rng);
    EXPECT_GT(overloaded.p95, 5.0 * stable.p95);
}

TEST(QueueingStation, ResetMeasurementsDiscardsWarmup)
{
    Rng rng(13);
    Simulator simulator;
    QueueingStation st(simulator, 1, 50.0, 0.01, rng);
    st.start();
    simulator.runUntil(1.0);
    size_t before = st.completedCount();
    EXPECT_GT(before, 0u);
    st.resetMeasurements();
    EXPECT_EQ(st.completedCount(), 0u);
    simulator.runUntil(2.0);
    EXPECT_GT(st.completedCount(), 0u);
}

TEST(QueueingStation, Validation)
{
    Rng rng(17);
    Simulator simulator;
    EXPECT_THROW(QueueingStation(simulator, 0, 1.0, 0.1, rng), Error);
    EXPECT_THROW(QueueingStation(simulator, 1, -1.0, 0.1, rng), Error);
    EXPECT_THROW(measureStation(1, 1.0, 0.0, 0.0, 1.0, rng), Error);
    EXPECT_THROW(measureStation(1, 1.0, 0.1, 0.0, 0.0, rng), Error);
}

/**
 * A warm-up, window or arrival rate that no loop could finish
 * simulating is rejected up front, before the zero-load return and
 * whether or not the station is below the knee: at ρ 1 a NaN warm-up
 * used to spin forever and a negative one returned an empty window.
 */
TEST(QueueingStation, RejectsNonFiniteOrNegativeTimes)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Rng rng(17);
    // One server at 100/s and 10 ms service is ρ 1, the warm-up path;
    // 50/s is ρ 0.5, below the knee; 0/s takes the zero-load return.
    for (double lambda : {100.0, 50.0, 0.0}) {
        EXPECT_THROW(measureStation(1, lambda, 0.01, nan, 2.0, rng), Error)
            << lambda;
        EXPECT_THROW(measureStation(1, lambda, 0.01, inf, 2.0, rng), Error)
            << lambda;
        EXPECT_THROW(measureStation(1, lambda, 0.01, -5.0, 2.0, rng), Error)
            << lambda;
        EXPECT_THROW(measureStation(1, lambda, 0.01, 1.0, inf, rng), Error)
            << lambda;
        EXPECT_THROW(measureStation(1, lambda, 0.01, 1.0, nan, rng), Error)
            << lambda;
        EXPECT_THROW(measureStation(1, lambda, 0.01, 1.0, -2.0, rng), Error)
            << lambda;
        EXPECT_NO_THROW(measureStation(1, lambda, 0.01, 0.0, 0.1, rng))
            << lambda;
    }
    EXPECT_THROW(measureStation(1, inf, 0.01, 1.0, 2.0, rng), Error);
    EXPECT_THROW(measureStation(1, inf, 0.01, 1.0, 2.0, rng, 2000), Error);
}

} // namespace
} // namespace sim
} // namespace clite
