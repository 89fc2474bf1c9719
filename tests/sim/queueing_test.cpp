/**
 * @file
 * Unit and property tests for the queueing station, including the
 * cross-validation of the DES against the closed-form M/M/c results —
 * the consistency contract between the two performance-model backends.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "reference_station.h"
#include "sim/queueing.h"
#include "stats/distributions.h"

namespace clite {
namespace sim {
namespace {

/** Exponential service with mean @p mean_service (the M/M/c case). */
ServiceModel
exponential(double mean_service)
{
    return {ServiceModel::Kind::Exponential, mean_service};
}

TEST(QueueingStation, NoArrivalsNoCompletions)
{
    Rng rng(3);
    TailMeasurement m = measureStation(2, 0.0, exponential(0.01), 0.5, 2.0, rng);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
}

TEST(QueueingStation, ThroughputMatchesOfferedLoadWhenStable)
{
    Rng rng(5);
    // lambda = 200/s, capacity = 4 / 0.01 = 400/s.
    TailMeasurement m = measureStation(4, 200.0, exponential(0.01), 2.0,
                                       20.0, rng);
    EXPECT_NEAR(m.throughput, 200.0, 12.0);
}

TEST(QueueingStation, DeterministicServiceLowLoadLatencyIsService)
{
    Rng rng(7);
    TailMeasurement m = measureStation(
        8, 10.0, {ServiceModel::Kind::Fixed, 0.02}, 1.0, 10.0, rng);
    // Almost no queueing at 2.5% utilization; all responses ~ 20ms.
    EXPECT_NEAR(m.p95, 0.02, 0.002);
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
    TailMeasurement m = measureStation(c.servers, lambda, exponential(1.0 / mu),
                                       5.0, 60.0, rng);
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
        sum += measureStation(c.servers, lambda, exponential(1.0 / mu), 5.0,
                              60.0, rng)
                   .p95;
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

TEST(QueueingStation, OverloadGrowsLatency)
{
    Rng rng(11);
    TailMeasurement stable = measureStation(2, 100.0, exponential(0.01), 1.0,
                                            10.0, rng);
    TailMeasurement overloaded = measureStation(2, 400.0, exponential(0.01),
                                                1.0, 10.0, rng);
    EXPECT_GT(overloaded.p95, 5.0 * stable.p95);
}

TEST(QueueingStation, ResetMeasurementsDiscardsWarmup)
{
    Rng rng(13);
    Simulator simulator;
    QueueingStation st(
        simulator, 1, 50.0, [](Rng& r) { return r.exponential(100.0); },
        rng);
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
    EXPECT_THROW(QueueingStation(simulator, 0, 1.0,
                                 [](Rng&) { return 0.1; }, rng),
                 Error);
    EXPECT_THROW(QueueingStation(simulator, 1, -1.0,
                                 [](Rng&) { return 0.1; }, rng),
                 Error);
    EXPECT_THROW(measureStation(1, 1.0, exponential(0.0), 0.0, 1.0, rng),
                 Error);
    EXPECT_THROW(measureStation(1, 1.0, exponential(0.1), 0.0, 0.0, rng),
                 Error);
}

} // namespace
} // namespace sim
} // namespace clite
