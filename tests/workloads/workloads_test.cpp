/**
 * @file
 * Unit and property tests for the workload catalog and the
 * performance-model backends — the fidelity contracts of the
 * simulated testbed (DESIGN.md Sec. 5).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
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

std::vector<int>
fullUnits(const platform::ServerConfig& cfg)
{
    std::vector<int> u(cfg.resourceCount());
    for (size_t r = 0; r < cfg.resourceCount(); ++r)
        u[r] = cfg.resource(r).units;
    return u;
}

TEST(Catalog, Table3Contents)
{
    EXPECT_EQ(lcWorkloadNames().size(), 5u);
    EXPECT_EQ(bgWorkloadNames().size(), 6u);
    for (const char* n : {"img-dnn", "masstree", "memcached", "specjbb",
                          "xapian"})
        EXPECT_TRUE(lcWorkload(n).isLatencyCritical()) << n;
    for (const char* n : {"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster", "swaptions"})
        EXPECT_FALSE(bgWorkload(n).isLatencyCritical()) << n;
    EXPECT_THROW(lcWorkload("streamcluster"), Error);
    EXPECT_THROW(bgWorkload("memcached"), Error);
    EXPECT_EQ(workloadByName("xapian").name, "xapian");
    EXPECT_EQ(workloadByName("canneal").name, "canneal");
    EXPECT_THROW(workloadByName("doom"), Error);
}

class LcWorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LcWorkloadTest, MeetsQosAtFullLoadInIsolation)
{
    // Calibration contract: at 100% load with the whole machine, the
    // QoS target is met (it was derived there with a margin).
    auto cfg = testbed();
    JobSpec job{lcWorkload(GetParam()), 1.0};
    AnalyticModel model;
    Rng rng(0);
    JobMeasurement m = model.measure(job, fullUnits(cfg), cfg, rng);
    EXPECT_LE(m.p95_ms, job.profile.qos_p95_ms);
    EXPECT_FALSE(m.saturated);
}

TEST_P(LcWorkloadTest, ViolatesQosBeyondSaturation)
{
    // Past the knee the curve blows up (Fig. 6's defining shape). The
    // knee sits at kKneeUtilization of machine capacity, so ~2.5x the
    // max load is past saturation for every profile.
    auto cfg = testbed();
    JobSpec job{lcWorkload(GetParam()), 2.5};
    AnalyticModel model;
    Rng rng(0);
    JobMeasurement m = model.measure(job, fullUnits(cfg), cfg, rng);
    EXPECT_GT(m.p95_ms, job.profile.qos_p95_ms);
}

TEST_P(LcWorkloadTest, LatencyMonotoneInLoad)
{
    auto cfg = testbed();
    AnalyticModel model;
    Rng rng(0);
    double prev = 0.0;
    for (double load : {0.2, 0.5, 0.8, 1.0}) {
        JobSpec job{lcWorkload(GetParam()), load};
        JobMeasurement m = model.measure(job, fullUnits(cfg), cfg, rng);
        EXPECT_GE(m.p95_ms, prev);
        prev = m.p95_ms;
    }
}

TEST_P(LcWorkloadTest, MoreCoresNeverHurt)
{
    auto cfg = testbed();
    AnalyticModel model;
    Rng rng(0);
    JobSpec job{lcWorkload(GetParam()), 0.4};
    double prev = 1e100;
    for (int cores = 2; cores <= 10; cores += 2) {
        std::vector<int> u = fullUnits(cfg);
        u[cfg.indexOf(platform::Resource::Cores)] = cores;
        JobMeasurement m = model.measure(job, u, cfg, rng);
        EXPECT_LE(m.p95_ms, prev * (1.0 + 1e-9)) << cores << " cores";
        prev = m.p95_ms;
    }
}

TEST_P(LcWorkloadTest, DesAgreesWithAnalytic)
{
    // The two backends must tell the same story (DESIGN.md: DES
    // cross-validates the closed form).
    auto cfg = testbed();
    JobSpec job{lcWorkload(GetParam()), 0.5};
    AnalyticModel analytic;
    QueueingSimModel des(2.0, 10.0);
    Rng rng(123);
    JobMeasurement ma = analytic.measure(job, fullUnits(cfg), cfg, rng);
    JobMeasurement md = des.measure(job, fullUnits(cfg), cfg, rng);
    EXPECT_NEAR(md.p95_ms, ma.p95_ms, 0.20 * ma.p95_ms);
}

INSTANTIATE_TEST_SUITE_P(Apps, LcWorkloadTest,
                         ::testing::ValuesIn(lcWorkloadNames()));

class BgWorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BgWorkloadTest, ThroughputMonotoneInEveryResource)
{
    auto cfg = testbed();
    AnalyticModel model;
    Rng rng(0);
    JobSpec job{bgWorkload(GetParam()), 1.0};
    for (size_t vary = 0; vary < cfg.resourceCount(); ++vary) {
        double prev = 0.0;
        for (int units = 1; units <= cfg.resource(vary).units; ++units) {
            std::vector<int> u(cfg.resourceCount(), 2);
            u[vary] = units;
            JobMeasurement m = model.measure(job, u, cfg, rng);
            EXPECT_GE(m.throughput, prev * (1.0 - 1e-9))
                << "resource " << vary << " units " << units;
            prev = m.throughput;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, BgWorkloadTest,
                         ::testing::ValuesIn(bgWorkloadNames()));

TEST(PerfModel, CacheSensitivityOrdering)
{
    // streamcluster (LLC-hungry) must gain more from ways than
    // blackscholes (CPU-bound) — the diversity Fig. 9a exploits.
    auto cfg = testbed();
    AnalyticModel model;
    Rng rng(0);
    auto gain = [&](const std::string& name) {
        JobSpec job{bgWorkload(name), 1.0};
        std::vector<int> few = {4, 1, 5};
        std::vector<int> many = {4, 9, 5};
        double t_few = model.measure(job, few, cfg, rng).throughput;
        double t_many = model.measure(job, many, cfg, rng).throughput;
        return t_many / t_few;
    };
    EXPECT_GT(gain("streamcluster"), 1.5 * gain("blackscholes"));
}

TEST(PerfModel, BandwidthContentionRaisesServiceTime)
{
    // masstree at high load with starved bandwidth must stall.
    auto cfg = testbed();
    JobSpec job{lcWorkload("masstree"), 1.0};
    std::vector<int> starved = {10, 11, 1};
    ServiceCost tight = deriveServiceCost(job, starved, cfg,
                                          job.offeredQps());
    std::vector<int> fed = {10, 11, 10};
    ServiceCost ok = deriveServiceCost(job, fed, cfg, job.offeredQps());
    EXPECT_GT(tight.bw_stall, 1.2);
    EXPECT_NEAR(ok.bw_stall, 1.0, 0.3);
    EXPECT_GT(tight.service_ms, ok.service_ms);
}

TEST(PerfModel, CacheWaysShedBandwidthDemand)
{
    // The equivalence-class interaction: with more ways (fewer
    // misses), the same bandwidth allocation stalls less.
    auto cfg = testbed();
    JobSpec job{lcWorkload("masstree"), 1.0};
    std::vector<int> few_ways = {10, 1, 2};
    std::vector<int> many_ways = {10, 11, 2};
    ServiceCost a = deriveServiceCost(job, few_ways, cfg,
                                      job.offeredQps());
    ServiceCost b = deriveServiceCost(job, many_ways, cfg,
                                      job.offeredQps());
    EXPECT_GT(a.miss_ratio, b.miss_ratio);
    EXPECT_GE(a.bw_stall, b.bw_stall);
}

TEST(PerfModel, CapacityPressureOnExtendedServer)
{
    auto cfg = platform::ServerConfig::xeonSilver4114AllResources();
    JobSpec job{bgWorkload("canneal"), 1.0}; // 8 GB working set
    std::vector<int> u(cfg.resourceCount(), 5);
    size_t cap = cfg.indexOf(platform::Resource::MemCapacity);
    u[cap] = 1; // 4.6 GB < 8 GB working set -> paging
    ServiceCost starved = deriveServiceCost(job, u, cfg, 0.0);
    u[cap] = 10;
    ServiceCost fed = deriveServiceCost(job, u, cfg, 0.0);
    EXPECT_GT(starved.paging, 1.5);
    EXPECT_DOUBLE_EQ(fed.paging, 1.0);
}

TEST(PerfModel, DiskThrottlingAffectsXapian)
{
    auto cfg = platform::ServerConfig::xeonSilver4114AllResources();
    JobSpec job{lcWorkload("xapian"), 0.3};
    AnalyticModel model;
    Rng rng(0);
    std::vector<int> u(cfg.resourceCount(), 5);
    u[cfg.indexOf(platform::Resource::Cores)] = 5;
    size_t disk = cfg.indexOf(platform::Resource::DiskBandwidth);
    u[disk] = 1;
    double slow = model.measure(job, u, cfg, rng).p95_ms;
    u[disk] = 10;
    double fast = model.measure(job, u, cfg, rng).p95_ms;
    EXPECT_GT(slow, fast);
}

TEST(PerfModel, SaturationFlagAndFiniteLatency)
{
    auto cfg = testbed();
    AnalyticModel model;
    Rng rng(0);
    JobSpec job{lcWorkload("img-dnn"), 1.0};
    std::vector<int> tiny = {1, 1, 1};
    JobMeasurement m = model.measure(job, tiny, cfg, rng);
    EXPECT_TRUE(m.saturated);
    EXPECT_TRUE(std::isfinite(m.p95_ms));
    EXPECT_GT(m.p95_ms, job.profile.qos_p95_ms);
}

TEST(PerfModel, JobSpecHelpers)
{
    JobSpec lc = lcJob("img-dnn", 0.3);
    EXPECT_NEAR(lc.offeredQps(), 0.3 * lc.profile.max_qps, 1e-9);
    EXPECT_EQ(lc.label(), "img-dnn@30%");
    JobSpec bg = bgJob("canneal");
    EXPECT_EQ(bg.label(), "canneal");
    EXPECT_THROW(lcJob("img-dnn", 0.0), Error);
    EXPECT_THROW(lcJob("img-dnn", 1.5), Error);
}

} // namespace
} // namespace workloads
} // namespace clite
