/**
 * @file
 * Property tests for the performance model — the global guarantees
 * every optimizer implicitly relies on, swept across the whole
 * workload catalog with TEST_P.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

namespace clite {
namespace workloads {
namespace {

platform::ServerConfig
testbed()
{
    return platform::ServerConfig::xeonSilver4114();
}

class LcProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    AnalyticModel model_;
    Rng rng_{0};
};

TEST_P(LcProperty, P95DecreasesInEveryResource)
{
    // More of ANY resource never hurts tail latency.
    auto cfg = testbed();
    JobSpec job{lcWorkload(GetParam()), 0.5};
    for (size_t vary = 0; vary < cfg.resourceCount(); ++vary) {
        double prev = 1e100;
        for (int units = 1; units <= cfg.resource(vary).units; ++units) {
            std::vector<int> u = {4, 4, 4};
            u[vary] = units;
            double p95 = model_.measure(job, u, cfg, rng_).p95_ms;
            EXPECT_LE(p95, prev * (1.0 + 1e-9))
                << GetParam() << " resource " << vary << " units "
                << units;
            prev = p95;
        }
    }
}

TEST_P(LcProperty, SaturatedFlagConsistentWithCapacity)
{
    // saturated == offered load exceeds the allocation's capacity,
    // and implies a large latency.
    auto cfg = testbed();
    JobSpec job{lcWorkload(GetParam()), 1.0};
    for (int cores = 1; cores <= 10; cores += 3) {
        std::vector<int> u = {cores, 6, 5};
        JobMeasurement m = model_.measure(job, u, cfg, rng_);
        if (m.saturated) {
            EXPECT_GT(m.p95_ms, job.profile.qos_p95_ms);
        }
        EXPECT_TRUE(std::isfinite(m.p95_ms));
    }
}

TEST_P(LcProperty, MeanBelowP95)
{
    auto cfg = testbed();
    JobSpec job{lcWorkload(GetParam()), 0.6};
    std::vector<int> u = {5, 6, 5};
    JobMeasurement m = model_.measure(job, u, cfg, rng_);
    if (!m.saturated) {
        EXPECT_LT(m.mean_ms, m.p95_ms);
    }
}

TEST_P(LcProperty, MissRatioWithinBoundsAndDecreasing)
{
    auto cfg = testbed();
    JobSpec job{lcWorkload(GetParam()), 0.5};
    double prev = 1.1;
    for (int ways = 1; ways <= 11; ++ways) {
        std::vector<int> u = {5, ways, 5};
        ServiceCost c = deriveServiceCost(job, u, cfg, job.offeredQps());
        EXPECT_GT(c.miss_ratio, 0.0);
        EXPECT_LE(c.miss_ratio, 1.0);
        EXPECT_LT(c.miss_ratio, prev);
        prev = c.miss_ratio;
    }
}

TEST_P(LcProperty, ZeroLoadHasFiniteBaseline)
{
    auto cfg = testbed();
    JobSpec job{lcWorkload(GetParam()), 1.0};
    job.load_fraction = 0.0; // no arrivals at all
    std::vector<int> u = {2, 2, 2};
    JobMeasurement m = model_.measure(job, u, cfg, rng_);
    EXPECT_GT(m.p95_ms, 0.0);
    EXPECT_TRUE(std::isfinite(m.p95_ms));
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Catalog, LcProperty,
                         ::testing::ValuesIn(lcWorkloadNames()));

class BgProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    AnalyticModel model_;
    Rng rng_{0};
};

TEST_P(BgProperty, CoreScalingIsConcave)
{
    // Marginal gain of each extra core never increases (Amdahl).
    auto cfg = testbed();
    JobSpec job{bgWorkload(GetParam()), 1.0};
    std::vector<double> rate(11, 0.0);
    for (int c = 1; c <= 10; ++c) {
        std::vector<int> u = {c, 11, 10}; // ample cache/bw
        rate[size_t(c)] = model_.measure(job, u, cfg, rng_).throughput;
    }
    for (int c = 2; c <= 9; ++c) {
        double gain_here = rate[size_t(c)] - rate[size_t(c - 1)];
        double gain_next = rate[size_t(c + 1)] - rate[size_t(c)];
        EXPECT_LE(gain_next, gain_here + 1e-6)
            << GetParam() << " at " << c << " cores";
    }
}

TEST_P(BgProperty, BandwidthBoundThroughputIsFlatInCores)
{
    // Once the memory channel is the bottleneck, extra cores cannot
    // reduce throughput (the regression the monotonicity fix covers).
    auto cfg = testbed();
    JobSpec job{bgWorkload(GetParam()), 1.0};
    double prev = 0.0;
    for (int c = 1; c <= 10; ++c) {
        std::vector<int> u = {c, 2, 1}; // starved cache + bandwidth
        double thr = model_.measure(job, u, cfg, rng_).throughput;
        EXPECT_GE(thr, prev * (1.0 - 1e-9)) << GetParam() << " " << c;
        prev = thr;
    }
}

TEST_P(BgProperty, DesAgreesWithAnalyticOnThroughputScale)
{
    auto cfg = testbed();
    JobSpec job{bgWorkload(GetParam()), 1.0};
    QueueingSimModel des(0.2, 2.0);
    Rng rng(77);
    std::vector<int> u = {4, 5, 4};
    double a = model_.measure(job, u, cfg, rng).throughput;
    double d = des.measure(job, u, cfg, rng).throughput;
    EXPECT_NEAR(d, a, 0.15 * a) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Catalog, BgProperty,
                         ::testing::ValuesIn(bgWorkloadNames()));

TEST(PerfModelProperty, LcLatencyMonotoneInLoadEverywhere)
{
    // Not just at full allocation: at random partial allocations too.
    auto cfg = testbed();
    Rng rng(5);
    AnalyticModel model;
    for (int rep = 0; rep < 30; ++rep) {
        std::string name = workloads::lcWorkloadNames()[size_t(
            rng.uniformInt(0, 4))];
        std::vector<int> u = {int(rng.uniformInt(2, 8)),
                              int(rng.uniformInt(2, 9)),
                              int(rng.uniformInt(2, 8))};
        double prev = 0.0;
        for (double load : {0.1, 0.3, 0.5, 0.7, 0.9}) {
            JobSpec job{lcWorkload(name), load};
            double p95 = model.measure(job, u, cfg, rng).p95_ms;
            EXPECT_GE(p95, prev * (1.0 - 1e-9))
                << name << " load " << load;
            prev = p95;
        }
    }
}

} // namespace
} // namespace workloads
} // namespace clite
