/**
 * @file
 * Determinism contract of the measurement loop: measureStation (the
 * production FCFS recursion, no event queue) must reproduce
 * measureStationReference (an event-driven simulation of the same
 * queue, QueueingStation on the pooled-heap Simulator,
 * reference_station.h) bit for bit — same RNG draw order, same start
 * state, same responses, same summary — across seeds and event
 * budgets, below the knee (stationary start) and above it (warm-up).
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
 * RNG streams left in the same state. Ten seeds of a small station;
 * two seeds each of stations at 5 000 and 30 000 requests/s and the
 * same 72% load, whose windows measure at least 4096 completions, the
 * size from which the window summary's pivot stride stops growing;
 * three of one whose fine and budgeted windows both measure 512 to
 * 4095, so they take the summary's tail path at a narrower stride; ten
 * seeds each of a one-server station near the knee (ρ 0.95), whose
 * stationary start often holds a long line, and of one at ρ 1, which
 * is past the knee and takes the warm-up path; and stations of 2, 5, 9
 * and 10 servers, whose stationary starts leave idle servers tied at
 * 0 (ρ 0.3 and 0.5) or hold long lines in front of many busy ones near
 * the knee (ρ 0.9 and 0.98), so departures land in every slot of the
 * sorted free times, ties included.
 */
TEST(QueueingFastPath, BitIdenticalToReferenceAcrossSeeds)
{
    struct Station
    {
        int servers;
        double lambda;
        double mean_service;
        uint64_t binding_budget;
        uint64_t seeds;
        size_t min_completed;
    };
    const Station stations[] = {{3, 180.0, 0.012, 128, 10, 0},
                                {3, 5000.0, 4.32e-4, 5000, 2, 4096},
                                {3, 30000.0, 7.2e-5, 5000, 2, 4096},
                                {1, 95.0, 0.01, 64, 10, 0},
                                {1, 100.0, 0.01, 64, 10, 0},
                                {4, 1000.0, 0.0028, 1000, 3, 512},
                                {2, 100.0, 0.01, 64, 10, 0},
                                {5, 450.0, 0.01, 128, 5, 0},
                                {9, 880.0, 0.01, 256, 5, 0},
                                {10, 300.0, 0.01, 64, 5, 0}};
    const double warmup = 0.5, window = 1.5;
    for (const Station& st : stations) {
        ASSERT_LT(effectiveWindow(window, st.lambda, st.binding_budget),
                  window);
        for (uint64_t budget : {uint64_t(0), st.binding_budget})
            for (uint64_t seed = 1; seed <= st.seeds; ++seed)
                for (bool primed : {false, true})
                    expectMatchesOracle(st.servers, st.lambda,
                                        st.mean_service, warmup, window,
                                        budget, seed, primed,
                                        st.min_completed);
    }
}

/**
 * Below the knee a window starts in the stationary state and reads no
 * warm-up, so its result and RNG end state do not depend on one; at
 * or above the knee the warm-up is simulated, and a longer one moves
 * the measured window.
 */
TEST(QueueingFastPath, WarmupIsReadOnlyAtOrAboveTheKnee)
{
    struct Station
    {
        int servers;
        double lambda;
        double mean_service;
        bool below_knee;
    };
    for (Station st : {Station{3, 180.0, 0.012, true},
                       Station{1, 95.0, 0.01, true},
                       Station{1, 100.0, 0.01, false},
                       Station{2, 250.0, 0.01, false}}) {
        ASSERT_EQ(st.lambda * st.mean_service / st.servers < kRhoKnee,
                  st.below_knee);
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            Rng rng_short(seed);
            Rng rng_long(seed);
            TailMeasurement short_warmup = measureStation(
                st.servers, st.lambda, st.mean_service, 0.5, 1.5, rng_short);
            TailMeasurement long_warmup = measureStation(
                st.servers, st.lambda, st.mean_service, 5.0, 1.5, rng_long);
            const bool same =
                std::memcmp(&short_warmup, &long_warmup,
                            sizeof short_warmup) == 0 &&
                rng_short.next() == rng_long.next();
            EXPECT_EQ(same, st.below_knee)
                << "lambda " << st.lambda << " seed " << seed;
        }
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

            // Re-run the same measurement through the event-driven
            // station to harvest the measured window's response times.
            Rng rng_raw(seed);
            std::vector<double> responses = referenceResponses(
                servers, lambda, mean_service, warmup, window, rng_raw);
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
 * Window sizes on both sides of the tail-selection threshold (512),
 * inside the range where the pivot stride grows with the window, and
 * past the size (4096) from which it stays at 32; and windows
 * dominated by ties, where the cut value repeats across the boundary
 * of the kept tail.
 */
TEST(QueueingFastPath, SummaryMatchesFullSortAroundTailThreshold)
{
    Rng rng(5);
    for (size_t n : {size_t(1), size_t(2), size_t(511), size_t(512),
                     size_t(513), size_t(2000), size_t(4095), size_t(4096),
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
 * The fallback branch: every stride-th response is one of the window's
 * largest, so the strided pivot sample holds only those and its cut
 * lands above rank floor(0.95 (n - 1)). The summary must then select
 * over every response and still match the full sort. Run at the widest
 * stride (32, from 4096 responses on) and at the narrowest (4, at the
 * 512-response threshold).
 */
TEST(QueueingFastPath, SummaryFallsBackWhenTheCutIsAboveTheTail)
{
    struct Window
    {
        size_t n;
        size_t stride;
    };
    Rng rng(9);
    for (Window w : {Window{8192, 32}, Window{512, 4}}) {
        const size_t n = w.n;
        std::vector<double> rt(n);
        for (size_t i = 0; i < n; ++i)
            rt[i] = i % w.stride == 0 ? 1.0 + rng.uniform()
                                      : 0.001 * rng.uniform();
        // The cut at the 90th percentile of the large responses keeps
        // about a tenth of them, fewer than the 5% tail the
        // percentiles read.
        const size_t large = n / w.stride;
        ASSERT_LT(large - large * 9 / 10,
                  n - size_t(0.95 * double(n - 1)));
        expectSummaryMatchesFullSort(rt, "fallback n " + std::to_string(n));

        // The same window with the large responses off the stride
        // keeps the tail path.
        std::rotate(rt.begin(), rt.begin() + 1, rt.end());
        expectSummaryMatchesFullSort(rt, "rotated n " + std::to_string(n));
    }
}

} // namespace
} // namespace sim
} // namespace clite
