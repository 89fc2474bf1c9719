/**
 * @file
 * Unit tests for the simulated server (apply/observe contract,
 * counters, isolation baselines, noise behaviour).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/error.h"
#include "platform/server.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

namespace clite {
namespace platform {
namespace {

SimulatedServer
makeServer(double noise = 0.0, uint64_t seed = 1)
{
    std::vector<workloads::JobSpec> jobs = {
        workloads::lcJob("img-dnn", 0.2),
        workloads::lcJob("memcached", 0.2),
        workloads::bgJob("streamcluster"),
    };
    return SimulatedServer(ServerConfig::xeonSilver4114(), jobs,
                           std::make_unique<workloads::AnalyticModel>(),
                           seed, noise);
}

TEST(SimulatedServer, JobClassification)
{
    SimulatedServer s = makeServer();
    EXPECT_EQ(s.jobCount(), 3u);
    EXPECT_EQ(s.lcJobs(), (std::vector<size_t>{0, 1}));
    EXPECT_EQ(s.bgJobs(), (std::vector<size_t>{2}));
    EXPECT_EQ(s.modelName(), "analytic");
}

TEST(SimulatedServer, ObservationShapeAndFields)
{
    SimulatedServer s = makeServer();
    auto obs = s.observe();
    ASSERT_EQ(obs.size(), 3u);
    EXPECT_TRUE(obs[0].is_lc);
    EXPECT_EQ(obs[0].job_name, "img-dnn");
    EXPECT_GT(obs[0].p95_ms, 0.0);
    EXPECT_GT(obs[0].qos_target_ms, 0.0);
    EXPECT_GT(obs[0].iso_p95_ms, 0.0);
    EXPECT_FALSE(obs[2].is_lc);
    EXPECT_GT(obs[2].throughput, 0.0);
    EXPECT_GT(obs[2].iso_throughput, 0.0);
}

TEST(SimulatedServer, CountersTrackApplyAndObserve)
{
    SimulatedServer s = makeServer();
    EXPECT_EQ(s.applyCount(), 0u);
    Allocation a = Allocation::equalShare(3, s.config());
    s.apply(a);
    EXPECT_EQ(s.applyCount(), 1u);
    s.evaluate(a);
    EXPECT_EQ(s.applyCount(), 2u);
    EXPECT_GE(s.observeCount(), 1u);
    EXPECT_GT(s.totalApplyLatencyMs(), 0.0);
    // Paper: partition-apply overhead < 100 ms per decision.
    EXPECT_LT(s.totalApplyLatencyMs() / double(s.applyCount()), 100.0);
}

TEST(SimulatedServer, NoiselessObservationIsDeterministicAndPure)
{
    SimulatedServer s = makeServer(0.05, 9);
    Allocation a = Allocation::equalShare(3, s.config());
    uint64_t applies = s.applyCount();
    auto o1 = s.observeNoiseless(a);
    auto o2 = s.observeNoiseless(a);
    EXPECT_EQ(s.applyCount(), applies); // no side effects
    for (size_t j = 0; j < o1.size(); ++j) {
        EXPECT_DOUBLE_EQ(o1[j].p95_ms, o2[j].p95_ms);
        EXPECT_DOUBLE_EQ(o1[j].throughput, o2[j].throughput);
    }
}

TEST(SimulatedServer, NoiseVariesAcrossWindowsAndIsUnbiased)
{
    SimulatedServer s = makeServer(0.05, 11);
    Allocation a = Allocation::equalShare(3, s.config());
    s.apply(a);
    double base = s.observeNoiseless(a)[0].p95_ms;
    double sum = 0.0;
    bool varies = false;
    double prev = -1.0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        double v = s.observe()[0].p95_ms;
        sum += v;
        if (prev >= 0.0 && v != prev)
            varies = true;
        prev = v;
    }
    EXPECT_TRUE(varies);
    EXPECT_NEAR(sum / n, base, 0.03 * base);
}

TEST(SimulatedServer, PerfNormAndQosSemantics)
{
    JobObservation lc;
    lc.is_lc = true;
    lc.p95_ms = 4.0;
    lc.qos_target_ms = 5.0;
    lc.iso_p95_ms = 3.0;
    EXPECT_TRUE(lc.qosMet());
    EXPECT_NEAR(lc.qosRatio(), 1.25, 1e-12);
    EXPECT_NEAR(lc.perfNorm(), 0.75, 1e-12);
    lc.p95_ms = 6.0;
    EXPECT_FALSE(lc.qosMet());

    JobObservation bg;
    bg.is_lc = false;
    bg.throughput = 400.0;
    bg.iso_throughput = 1000.0;
    EXPECT_TRUE(bg.qosMet()); // BG jobs have no QoS
    EXPECT_NEAR(bg.perfNorm(), 0.4, 1e-12);
}

TEST(SimulatedServer, IsolationBaselineIsMaxAllocationPerf)
{
    SimulatedServer s = makeServer();
    // The baseline equals measuring the job under its maxFor extremum.
    Allocation ext = Allocation::maxFor(2, 3, s.config());
    auto obs = s.observeNoiseless(ext);
    EXPECT_NEAR(s.isolationBaseline(2).throughput, obs[2].throughput,
                1e-9);
}

TEST(SimulatedServer, SetLoadRefreshesBaseline)
{
    SimulatedServer s = makeServer();
    double iso_low = s.isolationBaseline(0).p95_ms;
    s.setLoad(0, 0.9);
    double iso_high = s.isolationBaseline(0).p95_ms;
    EXPECT_GT(iso_high, iso_low);
    EXPECT_THROW(s.setLoad(2, 0.5), Error); // BG job
    EXPECT_THROW(s.setLoad(0, 0.0), Error);
    EXPECT_THROW(s.setLoad(9, 0.5), Error);
}

/**
 * The isolation baseline is cached and divides every later score of
 * its job, so it must be measured fine even when a coarse search probe
 * is the first window to ask for it: a DES server that observes first
 * under the 2000-request coarse budget reports the same baseline, bit
 * for bit, as its twin observing in fine mode, and keeps its budget.
 */
TEST(SimulatedServer, DesBaselineIsMeasuredFineUnderACoarseBudget)
{
    auto desServer = [] {
        std::vector<workloads::JobSpec> jobs = {
            workloads::lcJob("img-dnn", 0.2),
            workloads::lcJob("memcached", 0.2),
        };
        return SimulatedServer(
            ServerConfig::xeonSilver4114(), jobs,
            std::make_unique<workloads::QueueingSimModel>(), 1, 0.0);
    };
    SimulatedServer coarse = desServer();
    SimulatedServer fine = desServer();
    ASSERT_TRUE(coarse.setMeasurementEventBudget(2000));
    std::vector<JobObservation> coarse_obs = coarse.observe();
    std::vector<JobObservation> fine_obs = fine.observe();
    EXPECT_EQ(coarse.measurementEventBudget(), 2000u);
    for (size_t j = 0; j < 2; ++j) {
        const double a = coarse_obs[j].iso_p95_ms;
        const double b = fine_obs[j].iso_p95_ms;
        EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
            << coarse_obs[j].job_name << ": " << a << " vs " << b;
    }
}

/**
 * Ground truth is the closed form on every backend: on a DES server
 * each job's noise-free p95, p99 and throughput equal
 * workloads::closedFormMeasure() for its units bit for bit, its iso
 * fields are the measured isolationBaseline(), and neither the server
 * seed nor an armed coarse event budget moves any of it.
 */
TEST(SimulatedServer, DesNoiselessObservationIsTheClosedForm)
{
    auto desServer = [](uint64_t seed) {
        std::vector<workloads::JobSpec> jobs = {
            workloads::lcJob("img-dnn", 0.6),
            workloads::lcJob("memcached", 0.5),
            workloads::bgJob("streamcluster"),
        };
        return SimulatedServer(
            ServerConfig::xeonSilver4114(), jobs,
            std::make_unique<workloads::QueueingSimModel>(), seed, 0.05);
    };
    auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    SimulatedServer s = desServer(1);
    Allocation a = Allocation::maxFor(0, 3, s.config());
    std::vector<JobObservation> truth = s.observeNoiseless(a);
    ASSERT_EQ(truth.size(), 3u);
    for (size_t j = 0; j < truth.size(); ++j) {
        std::vector<int> units(a.resources());
        for (size_t r = 0; r < units.size(); ++r)
            units[r] = a.get(j, r);
        const workloads::JobMeasurement cf =
            workloads::closedFormMeasure(s.job(j), units, s.config());
        const workloads::JobMeasurement iso = s.isolationBaseline(j);
        EXPECT_TRUE(same(truth[j].p95_ms, cf.p95_ms)) << truth[j].job_name;
        EXPECT_TRUE(same(truth[j].p99_ms, cf.p99_ms)) << truth[j].job_name;
        EXPECT_TRUE(same(truth[j].throughput, cf.throughput))
            << truth[j].job_name;
        EXPECT_TRUE(same(truth[j].iso_p95_ms, iso.p95_ms))
            << truth[j].job_name;
        EXPECT_TRUE(same(truth[j].iso_throughput, iso.throughput))
            << truth[j].job_name;
    }
    EXPECT_GT(truth[0].p95_ms, 0.0);
    EXPECT_GT(truth[2].throughput, 0.0);

    SimulatedServer other_seed = desServer(2);
    SimulatedServer coarse = desServer(1);
    ASSERT_TRUE(coarse.setMeasurementEventBudget(2000));
    for (SimulatedServer* t : {&other_seed, &coarse}) {
        std::vector<JobObservation> again = t->observeNoiseless(a);
        for (size_t j = 0; j < truth.size(); ++j) {
            EXPECT_TRUE(same(again[j].p95_ms, truth[j].p95_ms));
            EXPECT_TRUE(same(again[j].p99_ms, truth[j].p99_ms));
            EXPECT_TRUE(same(again[j].throughput, truth[j].throughput));
            EXPECT_TRUE(same(again[j].iso_p95_ms, truth[j].iso_p95_ms));
            EXPECT_TRUE(
                same(again[j].iso_throughput, truth[j].iso_throughput));
        }
    }
    EXPECT_EQ(coarse.measurementEventBudget(), 2000u);
}

TEST(SimulatedServer, IsolationSettingsExposeDriverState)
{
    SimulatedServer s = makeServer();
    auto settings = s.isolationSettings(0);
    ASSERT_EQ(settings.size(), s.config().resourceCount());
    EXPECT_NE(settings[0].find("taskset"), std::string::npos);
    EXPECT_NE(settings[1].find("CAT"), std::string::npos);
    EXPECT_NE(settings[2].find("MBA"), std::string::npos);
}

TEST(SimulatedServer, RejectsMalformedApplications)
{
    SimulatedServer s = makeServer();
    Allocation wrong_jobs = Allocation::equalShare(2, s.config());
    EXPECT_THROW(s.apply(wrong_jobs), Error);
    Allocation bad = Allocation::equalShare(3, s.config());
    bad.set(0, 0, bad.get(0, 0) + 1);
    EXPECT_THROW(s.apply(bad), Error);
}

TEST(SimulatedServer, DesBackendWorksEndToEnd)
{
    std::vector<workloads::JobSpec> jobs = {
        workloads::lcJob("memcached", 0.2),
        workloads::bgJob("swaptions"),
    };
    SimulatedServer s(ServerConfig::xeonSilver4114(), jobs,
                      std::make_unique<workloads::QueueingSimModel>(0.2,
                                                                    0.5),
                      3, 0.0);
    EXPECT_EQ(s.modelName(), "des");
    auto obs = s.observe();
    EXPECT_GT(obs[0].p95_ms, 0.0);
    EXPECT_GT(obs[1].throughput, 0.0);
}

} // namespace
} // namespace platform
} // namespace clite
