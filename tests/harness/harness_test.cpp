/**
 * @file
 * Tests for the evaluation harness: knee analysis, QoS regions,
 * max-load probing, variability, convergence and dynamic adaptation.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "harness/analysis.h"
#include "harness/dynamic.h"
#include "harness/knee.h"
#include "harness/maxload.h"
#include "harness/qos_region.h"
#include "workloads/catalog.h"

namespace clite {
namespace harness {
namespace {

TEST(Schemes, RegistryCoversAllNames)
{
    for (const auto& name : allSchemeNames()) {
        auto ctl = makeScheme(name, 3);
        ASSERT_NE(ctl, nullptr);
        EXPECT_EQ(ctl->name(), name);
    }
    EXPECT_THROW(makeScheme("skynet"), Error);
}

TEST(Schemes, RunSchemeProducesTruthfulOutcome)
{
    ServerSpec spec;
    spec.jobs = {workloads::lcJob("memcached", 0.2),
                 workloads::bgJob("swaptions")};
    SchemeOutcome out = runScheme("parties", spec, 5);
    EXPECT_TRUE(out.result.best.has_value());
    EXPECT_EQ(out.truth_obs.size(), 2u);
    EXPECT_GT(out.samples_applied, 0u);
}

TEST(Knee, CurveShapeMatchesFig6)
{
    KneeCurve curve = sweepIsolatedLoad(
        "img-dnn", {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4});
    ASSERT_EQ(curve.points.size(), 7u);
    // Latency is monotone in load...
    for (size_t i = 1; i < curve.points.size(); ++i)
        EXPECT_GE(curve.points[i].p95_ms, curve.points[i - 1].p95_ms);
    // ...the knee sits at the calibrated max load...
    EXPECT_NEAR(curve.measuredKneeLoad(), 1.0, 1e-9);
    // ...and the blow-up beyond the knee is dramatic.
    EXPECT_GT(curve.points.back().p95_ms, 3.0 * curve.points[4].p95_ms);
}

TEST(Knee, AllLcWorkloadsShareTheContract)
{
    for (const auto& name : workloads::lcWorkloadNames()) {
        KneeCurve c = sweepIsolatedLoad(name, {0.5, 1.0, 1.3});
        EXPECT_LE(c.points[1].p95_ms, c.qos_p95_ms) << name;
        EXPECT_GT(c.points[2].p95_ms, c.qos_p95_ms) << name;
    }
}

/**
 * Each point of a DES curve is one window of the seeded server, so the
 * seed moves it; the analytic curve is the closed form whatever the
 * seed.
 */
TEST(Knee, DesCurveReadsTheSeededWindowAnalyticDoesNot)
{
    const std::vector<double> loads = {0.4, 0.8};
    KneeCurve des1 = sweepIsolatedLoad("memcached", loads,
                                       ModelBackend::Des, 1);
    KneeCurve des2 = sweepIsolatedLoad("memcached", loads,
                                       ModelBackend::Des, 2);
    KneeCurve an1 = sweepIsolatedLoad("memcached", loads,
                                      ModelBackend::Analytic, 1);
    KneeCurve an2 = sweepIsolatedLoad("memcached", loads,
                                      ModelBackend::Analytic, 2);
    for (size_t i = 0; i < loads.size(); ++i) {
        EXPECT_NE(des1.points[i].p95_ms, des2.points[i].p95_ms)
            << "load " << loads[i];
        EXPECT_EQ(an1.points[i].p95_ms, an2.points[i].p95_ms)
            << "load " << loads[i];
    }
}

TEST(QosRegion, ImgDnnShowsResourceEquivalence)
{
    // Fig. 1's point: multiple (cores, ways) mixes are QoS-safe, and
    // they trade off against each other.
    QosRegion region = mapQosRegion("img-dnn", 0.5,
                                    platform::Resource::Cores,
                                    platform::Resource::LlcWays);
    EXPECT_GT(region.safeCount(), 4u);
    EXPECT_TRUE(region.hasEquivalenceTradeoff());
}

TEST(QosRegion, SafetyMonotoneInBothResources)
{
    QosRegion region = mapQosRegion("masstree", 0.4,
                                    platform::Resource::Cores,
                                    platform::Resource::MemBandwidth);
    // If (a, b) is safe then (a+1, b) and (a, b+1) are safe.
    for (size_t bi = 0; bi < region.safe.size(); ++bi)
        for (size_t ai = 0; ai < region.safe[bi].size(); ++ai) {
            if (!region.safe[bi][ai])
                continue;
            if (ai + 1 < region.safe[bi].size()) {
                EXPECT_TRUE(region.safe[bi][ai + 1]);
            }
            if (bi + 1 < region.safe.size()) {
                EXPECT_TRUE(region.safe[bi + 1][ai]);
            }
        }
}

TEST(QosRegion, RejectsIdenticalResources)
{
    EXPECT_THROW(mapQosRegion("img-dnn", 0.5, platform::Resource::Cores,
                              platform::Resource::Cores),
                 Error);
}

TEST(MaxLoad, OracleFrontierIsSensible)
{
    MaxLoadQuery q;
    q.fixed_jobs = {workloads::lcJob("img-dnn", 0.1),
                    workloads::lcJob("masstree", 0.1)};
    q.probe_workload = "memcached";
    q.noise_sigma = 0.0;
    double light = maxSupportedLoad("oracle", q);
    EXPECT_GT(light, 0.2); // plenty of room at 10%/10%

    q.fixed_jobs = {workloads::lcJob("img-dnn", 0.9),
                    workloads::lcJob("masstree", 0.9)};
    double heavy = maxSupportedLoad("oracle", q);
    EXPECT_LT(heavy, light);
}

TEST(MaxLoad, HeraclesCannotColocateMultipleLcJobs)
{
    // Fig. 7a: Heracles supports no memcached load against two other
    // LC jobs at moderate loads.
    MaxLoadQuery q;
    q.fixed_jobs = {workloads::lcJob("img-dnn", 0.5),
                    workloads::lcJob("masstree", 0.5)};
    q.probe_workload = "memcached";
    EXPECT_DOUBLE_EQ(maxSupportedLoad("heracles", q), 0.0);
}

TEST(Analysis, MeanPerformanceHelpers)
{
    platform::JobObservation lc;
    lc.is_lc = true;
    lc.p95_ms = 2.0;
    lc.iso_p95_ms = 1.0;
    lc.qos_target_ms = 3.0;
    platform::JobObservation bg;
    bg.is_lc = false;
    bg.throughput = 300.0;
    bg.iso_throughput = 1000.0;
    std::vector<platform::JobObservation> obs = {lc, bg};
    EXPECT_NEAR(meanLcPerformance(obs), 0.5, 1e-12);
    EXPECT_NEAR(meanBgPerformance(obs), 0.3, 1e-12);
}

TEST(Analysis, VariabilityAcrossTrials)
{
    ServerSpec spec;
    spec.jobs = {workloads::lcJob("memcached", 0.3),
                 workloads::bgJob("swaptions")};
    VariabilityResult v = runVariability("rand+", spec, 4);
    EXPECT_EQ(v.trials, 4);
    EXPECT_GT(v.mean_perf, 0.0);
    EXPECT_GE(v.cov_percent, 0.0);
}

TEST(Analysis, ConvergenceTraceMatchesRun)
{
    ServerSpec spec;
    spec.jobs = {workloads::lcJob("img-dnn", 0.2),
                 workloads::lcJob("memcached", 0.2),
                 workloads::bgJob("fluidanimate")};
    ConvergenceTrace t = traceConvergence("clite", spec, 11);
    ASSERT_FALSE(t.steps.empty());
    EXPECT_EQ(t.steps.front().sample, 1);
    EXPECT_EQ(t.steps.back().sample, int(t.steps.size()));
    EXPECT_EQ(t.allocations.size(), t.steps.size());
    ASSERT_GT(t.first_feasible, 0);
    EXPECT_TRUE(t.steps[size_t(t.first_feasible - 1)].all_qos_met);
}

TEST(Dynamic, AdaptsToLoadStepsAndRestabilizes)
{
    ServerSpec spec;
    spec.jobs = {workloads::lcJob("img-dnn", 0.1),
                 workloads::lcJob("memcached", 0.1),
                 workloads::lcJob("masstree", 0.1),
                 workloads::bgJob("fluidanimate")};
    core::CliteOptions fast;
    fast.max_iterations = 15;
    DynamicResult r = runDynamicScenario(spec, 1, {0.1, 0.2, 0.3}, 3,
                                         fast);
    // Three phases, each with a search + settle segment.
    EXPECT_EQ(r.stabilization_samples.size(), 3u);
    EXPECT_TRUE(r.all_phases_feasible);
    // Load recorded on the timeline steps through the schedule.
    EXPECT_DOUBLE_EQ(r.timeline.front().changed_load, 0.1);
    EXPECT_DOUBLE_EQ(r.timeline.back().changed_load, 0.3);
    // Settle windows are non-exploring.
    EXPECT_FALSE(r.timeline.back().exploring);
}

TEST(Dynamic, ValidatesArguments)
{
    ServerSpec spec;
    spec.jobs = {workloads::lcJob("img-dnn", 0.1),
                 workloads::bgJob("swaptions")};
    EXPECT_THROW(runDynamicScenario(spec, 1, {0.1, 0.2}), Error);
    EXPECT_THROW(runDynamicScenario(spec, 0, {0.1}), Error);
    EXPECT_THROW(runDynamicScenario(spec, 5, {0.1, 0.2}), Error);
}

} // namespace
} // namespace harness
} // namespace clite
