/**
 * @file
 * Determinism contract of the measurement loop: measureStation (the
 * production FCFS recursion, no event queue) must reproduce
 * measureStationReference (an event-driven simulation of the same
 * queue, QueueingStation on the pooled-heap Simulator,
 * reference_station.h) bit for bit — same RNG draw order, same
 * responses, same summary — across seeds and event budgets.
 * sim/queueing.h names this file as the pin for that contract, and for
 * the percentile selection matching a full-sort stats::percentile, on
 * small windows and on the large ones summarized from their top tail
 * only.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
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
                uint64_t seed)
{
    EXPECT_TRUE(sameBits(fast.p95, ref.p95)) << "p95 seed " << seed;
    EXPECT_TRUE(sameBits(fast.p99, ref.p99)) << "p99 seed " << seed;
    EXPECT_TRUE(sameBits(fast.mean, ref.mean)) << "mean seed " << seed;
    EXPECT_TRUE(sameBits(fast.throughput, ref.throughput))
        << "throughput seed " << seed;
    EXPECT_EQ(fast.completed, ref.completed) << "completed seed " << seed;
}

/**
 * Run one window through both paths from the same seed and pin every
 * summary field and the RNG end state: two normal() draws (the first
 * reads the Box-Muller cache the window leaves behind) and a raw
 * next(). @p primed draws one normal() on both streams first, so the
 * window starts with a cached normal.
 */
void
expectMatchesOracle(int servers, double lambda, double mean_service,
                    double warmup, double window, uint64_t budget,
                    uint64_t seed, bool primed, size_t min_completed = 0)
{
    Rng rng_fast(seed);
    Rng rng_ref(seed);
    if (primed) {
        ASSERT_TRUE(sameBits(rng_fast.normal(), rng_ref.normal()));
    }
    TailMeasurement fast = measureStation(servers, lambda, mean_service,
                                          warmup, window, rng_fast, budget);
    TailMeasurement ref = measureStationReference(
        servers, lambda, mean_service, warmup, window, rng_ref, budget);
    ASSERT_GE(ref.completed, min_completed)
        << "lambda " << lambda << " budget " << budget;
    expectIdentical(fast, ref, seed);
    // The RNG streams must also end in the same state: any skipped or
    // extra draw, or a dropped Box-Muller cache, desynchronizes later
    // windows even if this one happened to agree.
    for (int i = 0; i < 2; ++i)
        EXPECT_TRUE(sameBits(rng_fast.normal(), rng_ref.normal()))
            << "normal " << i << " seed " << seed << " lambda " << lambda
            << " budget " << budget << " primed " << primed;
    EXPECT_EQ(rng_fast.next(), rng_ref.next())
        << "rng state seed " << seed << " lambda " << lambda << " budget "
        << budget << " primed " << primed;
}

/**
 * With and without an event budget that binds, each with and without a
 * cached normal before the window: every summary field bit-identical
 * between the fast loop and the simulator-based reference, and both
 * RNG streams left in the same state. Ten seeds of a small station,
 * and two seeds each of stations at 5 000 and 30 000 requests/s and
 * the same 72% load, whose windows measure at least 4096 completions,
 * the size from which the window summary selects its percentiles from
 * the top tail only.
 */
TEST(QueueingFastPath, BitIdenticalToReferenceAcrossSeeds)
{
    struct Station
    {
        double lambda;
        double mean_service;
        uint64_t binding_budget;
        uint64_t seeds;
        size_t min_completed;
    };
    const Station stations[] = {{180.0, 0.012, 128, 10, 0},
                                {5000.0, 4.32e-4, 5000, 2, 4096},
                                {30000.0, 7.2e-5, 5000, 2, 4096}};
    const int servers = 3;
    const double warmup = 0.5, window = 1.5;
    for (const Station& st : stations) {
        ASSERT_LT(effectiveWindow(window, st.lambda, st.binding_budget),
                  window);
        for (uint64_t budget : {uint64_t(0), st.binding_budget})
            for (uint64_t seed = 1; seed <= st.seeds; ++seed)
                for (bool primed : {false, true})
                    expectMatchesOracle(servers, st.lambda, st.mean_service,
                                        warmup, window, budget, seed, primed,
                                        st.min_completed);
    }
}

/** The identity holds under an event budget (shortened window) too. */
TEST(QueueingFastPath, BitIdenticalToReferenceUnderBudget)
{
    const double mean_service = 0.005;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng_fast(seed);
        Rng rng_ref(seed);
        TailMeasurement fast = measureStation(2, 300.0, mean_service, 0.5,
                                              2.0, rng_fast, 128);
        TailMeasurement ref = measureStationReference(
            2, 300.0, mean_service, 0.5, 2.0, rng_ref, 128);
        expectIdentical(fast, ref, seed);
    }
}

/**
 * The rank-selected percentiles the fast loop reports are exactly the
 * full-sort stats::percentile values — pinned through the reference
 * path, whose QueueingStation exposes the raw response times — on a
 * small window and on one large enough for tail selection.
 */
TEST(QueueingFastPath, SelectedPercentilesMatchFullSort)
{
    struct Station
    {
        double lambda;
        double mean_service;
        size_t min_completed;
    };
    for (Station station :
         {Station{180.0, 0.012, 0}, Station{30000.0, 7.2e-5, 4096}}) {
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            const int servers = 3;
            const double lambda = station.lambda;
            const double mean_service = station.mean_service;
            const double warmup = 0.5, window = 1.5;

            Rng rng_fast(seed);
            TailMeasurement fast = measureStation(
                servers, lambda, mean_service, warmup, window, rng_fast);

            // Re-run the same measurement through the raw station to
            // harvest the measured window's response times.
            Rng rng_raw(seed);
            Simulator sim;
            QueueingStation st(sim, servers, lambda, mean_service, rng_raw);
            st.start();
            sim.runUntil(warmup);
            st.resetMeasurements();
            sim.runUntil(warmup + window);
            std::vector<double> responses = st.responseTimes();
            ASSERT_EQ(responses.size(), fast.completed);
            ASSERT_GE(responses.size(), station.min_completed);

            EXPECT_TRUE(
                sameBits(fast.p95, stats::percentile(responses, 0.95)));
            EXPECT_TRUE(
                sameBits(fast.p99, stats::percentile(responses, 0.99)));
        }
    }
}

/** summarizeWindow against full-sort percentiles on a given window. */
void
expectSummaryMatchesFullSort(const std::vector<double>& rt,
                             const std::string& label)
{
    TailMeasurement out = summarizeWindow(rt, 2.0);
    EXPECT_EQ(out.completed, rt.size()) << label;
    EXPECT_TRUE(sameBits(out.p95, stats::percentile(rt, 0.95))) << label;
    EXPECT_TRUE(sameBits(out.p99, stats::percentile(rt, 0.99))) << label;
}

/**
 * Window sizes on both sides of the tail-selection threshold, and
 * windows dominated by ties, where the cut value repeats across the
 * boundary of the kept tail.
 */
TEST(QueueingFastPath, SummaryMatchesFullSortAroundTailThreshold)
{
    Rng rng(5);
    for (size_t n : {size_t(1), size_t(2), size_t(4095), size_t(4096),
                     size_t(4097), size_t(8191), size_t(20000)}) {
        std::vector<double> rt(n);
        for (double& x : rt)
            x = rng.exponential(100.0);
        expectSummaryMatchesFullSort(rt, "exponential n " +
                                             std::to_string(n));
        std::vector<double> ties(n);
        for (double& x : ties)
            x = double(rng.uniformInt(0, 3)) * 0.001;
        expectSummaryMatchesFullSort(ties, "ties n " + std::to_string(n));
        expectSummaryMatchesFullSort(std::vector<double>(n, 0.004),
                                     "constant n " + std::to_string(n));
    }
}

/**
 * The fallback branch: every 32nd response is one of the window's
 * largest, so the strided pivot sample holds only those and its cut
 * lands above rank floor(0.95 (n - 1)). The summary must then select
 * over every response and still match the full sort.
 */
TEST(QueueingFastPath, SummaryFallsBackWhenTheCutIsAboveTheTail)
{
    const size_t n = 8192;
    std::vector<double> rt(n);
    Rng rng(9);
    for (size_t i = 0; i < n; ++i)
        rt[i] = i % 32 == 0 ? 1.0 + rng.uniform() : 0.001 * rng.uniform();
    // Only n / 32 responses are large, fewer than the 5% tail the
    // percentiles read, so a cut among them keeps too few.
    ASSERT_LT(n / 32, n - size_t(0.95 * double(n - 1)));
    expectSummaryMatchesFullSort(rt, "fallback");

    // The same window with the large responses off the stride keeps
    // the tail path.
    std::rotate(rt.begin(), rt.begin() + 1, rt.end());
    expectSummaryMatchesFullSort(rt, "rotated");
}

} // namespace
} // namespace sim
} // namespace clite
