/**
 * @file
 * Determinism contract of the specialized measurement loop:
 * measureStation (the production fast path, no generic event queue)
 * must reproduce measureStationReference (QueueingStation on the
 * pooled-heap Simulator, reference_station.h) bit for bit — same event
 * order, same RNG draw order, same summary — across seeds, every
 * service kind, and event budgets. sim/queueing.h names this file as
 * the pin for that contract, and for the percentile selection matching
 * a full-sort stats::percentile.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "reference_station.h"
#include "sim/queueing.h"
#include "stats/summary.h"

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
expectIdentical(const TailMeasurement& fast, const TailMeasurement& ref,
                uint64_t seed, int kind)
{
    EXPECT_TRUE(sameBits(fast.p95, ref.p95))
        << "p95 seed " << seed << " kind " << kind;
    EXPECT_TRUE(sameBits(fast.p99, ref.p99))
        << "p99 seed " << seed << " kind " << kind;
    EXPECT_TRUE(sameBits(fast.mean, ref.mean))
        << "mean seed " << seed << " kind " << kind;
    EXPECT_TRUE(sameBits(fast.throughput, ref.throughput))
        << "throughput seed " << seed << " kind " << kind;
    EXPECT_EQ(fast.completed, ref.completed)
        << "completed seed " << seed << " kind " << kind;
}

/**
 * Ten seeds, every service kind (exponential, log-normal,
 * deterministic, bounded Pareto), with and without an event budget
 * that binds: every summary field bit-identical between the fast loop
 * and the simulator-based reference, and both RNG streams left in the
 * same state.
 */
TEST(QueueingFastPath, BitIdenticalToReferenceAcrossSeeds)
{
    const int servers = 3;
    const double lambda = 180.0, warmup = 0.5, window = 1.5;
    const uint64_t binding_budget = 128;
    ASSERT_LT(effectiveWindow(window, lambda, binding_budget), window);
    const ServiceModel::Kind kinds[] = {
        ServiceModel::Kind::Exponential, ServiceModel::Kind::LogNormal,
        ServiceModel::Kind::Fixed, ServiceModel::Kind::BoundedPareto};
    for (ServiceModel::Kind kind : kinds) {
        ServiceModel service{kind, 0.012, 0.5};
        for (uint64_t budget : {uint64_t(0), binding_budget}) {
            for (uint64_t seed = 1; seed <= 10; ++seed) {
                Rng rng_fast(seed);
                Rng rng_ref(seed);
                TailMeasurement fast =
                    measureStation(servers, lambda, service, warmup,
                                   window, rng_fast, budget);
                TailMeasurement ref = measureStationReference(
                    servers, lambda, service, warmup, window, rng_ref,
                    budget);
                expectIdentical(fast, ref, seed, int(kind));
                // The RNG streams must also end in the same state: any
                // skipped or extra draw desynchronizes later windows
                // even if this one happened to agree.
                EXPECT_EQ(rng_fast.next(), rng_ref.next())
                    << "rng state seed " << seed << " kind " << int(kind)
                    << " budget " << budget;
            }
        }
    }
}

/** The identity holds under an event budget (shortened window) too. */
TEST(QueueingFastPath, BitIdenticalToReferenceUnderBudget)
{
    const ServiceModel service{ServiceModel::Kind::LogNormal, 0.005, 0.5};
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng_fast(seed);
        Rng rng_ref(seed);
        TailMeasurement fast = measureStation(2, 300.0, service, 0.5, 2.0,
                                              rng_fast, 128);
        TailMeasurement ref = measureStationReference(
            2, 300.0, service, 0.5, 2.0, rng_ref, 128);
        expectIdentical(fast, ref, seed, int(service.kind));
    }
}

/**
 * The rank-selected percentiles the fast loop reports are exactly the
 * full-sort stats::percentile values — pinned through the reference
 * path, whose QueueingStation exposes the raw response times.
 */
TEST(QueueingFastPath, SelectedPercentilesMatchFullSort)
{
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        const int servers = 3;
        const double lambda = 180.0, mean_service = 0.012, sigma = 0.5;
        const double warmup = 0.5, window = 1.5;

        Rng rng_fast(seed);
        TailMeasurement fast = measureStation(
            servers, lambda,
            {ServiceModel::Kind::LogNormal, mean_service, sigma}, warmup,
            window, rng_fast);

        // Re-run the same measurement through the raw station to
        // harvest the measured window's response times.
        Rng rng_raw(seed);
        Simulator sim;
        QueueingStation st(
            sim, servers, lambda,
            [&](Rng& r) { return r.logNormalMean(mean_service, sigma); },
            rng_raw);
        st.start();
        sim.runUntil(warmup);
        st.resetMeasurements();
        sim.runUntil(warmup + window);
        std::vector<double> responses = st.responseTimes();
        ASSERT_EQ(responses.size(), fast.completed);

        EXPECT_TRUE(sameBits(fast.p95, stats::percentile(responses, 0.95)));
        EXPECT_TRUE(sameBits(fast.p99, stats::percentile(responses, 0.99)));
    }
}

} // namespace
} // namespace sim
} // namespace clite
