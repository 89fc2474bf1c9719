/**
 * @file
 * Unit tests for the deterministic RNG substrate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "common/cpu.h"
#include "common/error.h"
#include "common/rng.h"

namespace clite {
namespace {

TEST(SplitMix64, KnownSequenceFromZeroSeed)
{
    // Reference values of SplitMix64 seeded with 0.
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFull);
    EXPECT_EQ(sm.next(), 0x6E789E6AA1B965F4ull);
    EXPECT_EQ(sm.next(), 0x06C45D188009454Full);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(13);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingletonRange)
{
    Rng rng(17);
    EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, UniformIntRejectsInvertedBounds)
{
    Rng rng(19);
    EXPECT_THROW(rng.uniformInt(5, 4), Error);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(23);
    const int n = 200000;
    double sum = 0.0, sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, LogNormalMeanParameterization)
{
    Rng rng(29);
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.logNormalMean(3.5, 0.4);
    EXPECT_NEAR(sum / n, 3.5, 0.05);
}

TEST(Rng, LogNormalRejectsNonPositiveMean)
{
    Rng rng(31);
    EXPECT_THROW(rng.logNormalMean(0.0, 0.5), Error);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(37);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate)
{
    Rng rng(41);
    EXPECT_THROW(rng.exponential(0.0), Error);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(43);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(47);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng rng(53);
    std::vector<double> w = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.categorical(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(double(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(double(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsDegenerateWeights)
{
    Rng rng(59);
    std::vector<double> zero = {0.0, 0.0};
    EXPECT_THROW(rng.categorical(zero), Error);
    std::vector<double> negative = {1.0, -0.5};
    EXPECT_THROW(rng.categorical(negative), Error);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(61);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

/** Bitwise equality for doubles (distinguishes -0.0, NaN-safe). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Box-Muller computes its pair with one sincos() call; over its whole
 * domain, theta = 2 pi u for u in [0, 1), that must equal separate
 * sin() and cos() calls bit for bit.
 */
TEST(Rng, SincosMatchesSinAndCosOverBoxMullerDomain)
{
    Rng rng(71);
    std::vector<double> us = {0.0, 0.25, 0.5, 0.75,
                              std::nextafter(1.0, 0.0)};
    for (int i = 0; i < 100000; ++i)
        us.push_back(rng.uniform());
    for (double u : us) {
        const double theta = 2.0 * M_PI * u;
        double s, c;
        ::sincos(theta, &s, &c);
        EXPECT_TRUE(sameBits(s, std::sin(theta))) << "u " << u;
        EXPECT_TRUE(sameBits(c, std::cos(theta))) << "u " << u;
    }
}

/**
 * Across more than three block boundaries the lookahead returns, call
 * for call, the bits a parallel Rng returns: unitExponential() is
 * exponential(1.0).
 */
TEST(RngLookahead, MatchesRngCallForCallAcrossBlocks)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng parent(seed), ref(seed);
        RngLookahead ahead(parent);
        for (size_t draw = 0; draw < 4 * RngLookahead::kBlock + 17; ++draw)
            ASSERT_TRUE(
                sameBits(ahead.unitExponential(), ref.exponential(1.0)))
                << "seed " << seed << " draw " << draw;
        ahead.commit();
        EXPECT_TRUE(sameBits(parent.normal(), ref.normal()));
        EXPECT_EQ(parent.next(), ref.next());
    }
}

/**
 * commit() leaves the parent exactly where the consumed draws leave
 * the reference, and its Box-Muller cache as it was: after no draw,
 * mid-block, at exactly one block, just past it and two blocks in,
 * with and without a cached normal before the lookahead starts, and
 * again after a second commit.
 */
TEST(RngLookahead, CommitLeavesParentAtConsumedPosition)
{
    const size_t block = RngLookahead::kBlock;
    for (size_t count : {size_t(0), size_t(1), size_t(57), block - 1,
                         block, block + 1, 2 * block}) {
        for (bool primed : {false, true}) {
            Rng parent(99), ref(99);
            if (primed) {
                ASSERT_TRUE(sameBits(parent.normal(), ref.normal()));
            }
            RngLookahead ahead(parent);
            for (size_t i = 0; i < count; ++i)
                ASSERT_TRUE(
                    sameBits(ahead.unitExponential(), ref.exponential(1.0)));
            ahead.commit();
            EXPECT_TRUE(sameBits(parent.normal(), ref.normal()))
                << count << " draws, primed " << primed;
            EXPECT_TRUE(sameBits(parent.normal(), ref.normal()))
                << count << " draws, primed " << primed;
            EXPECT_EQ(parent.next(), ref.next())
                << count << " draws, primed " << primed;
        }
    }

    // A second commit after more draws moves the parent again.
    Rng parent(7), ref(7);
    RngLookahead ahead(parent);
    for (size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(sameBits(ahead.unitExponential(), ref.exponential(1.0)));
    ahead.commit();
    for (size_t i = 0; i < block; ++i)
        ASSERT_TRUE(sameBits(ahead.unitExponential(), ref.exponential(1.0)));
    ahead.commit();
    EXPECT_TRUE(sameBits(parent.normal(), ref.normal()));
    EXPECT_TRUE(sameBits(parent.normal(), ref.normal()));
    EXPECT_EQ(parent.next(), ref.next());
}

/**
 * The unit-exponential kernel's inputs: its edges — u = 0, 2^-53 and
 * 1 - 2^-53, u = 1 - 2^-j (1 - u on every power of two it reaches),
 * and u one step of 2^-53 either side of the √2/2 reduction cut in
 * every binade where 1 - u can sit on it — then 10^6 seeded uniforms.
 * Padded to a multiple of 4 for the block forms.
 */
std::vector<double>
unitExponentialInputs()
{
    std::vector<double> us = {0.0, 0x1p-53, 1.0 - 0x1p-53};
    for (int j = 1; j <= 53; ++j)
        us.push_back(1.0 - std::ldexp(1.0, -j));
    const uint64_t cut_bits = 0x3fe6a09e00000000ull;
    double cut;
    std::memcpy(&cut, &cut_bits, sizeof cut);
    for (int j = 0; j <= 32; ++j) {
        const double u = 1.0 - std::ldexp(cut, -j); // exact
        for (double step : {-0x1p-53, 0.0, 0x1p-53})
            us.push_back(u + step);
    }
    Rng rng(2020);
    for (int i = 0; i < 1000000; ++i)
        us.push_back(rng.uniform());
    us.resize((us.size() + 3) / 4 * 4, 0.5);
    return us;
}

/**
 * The kernel is within 1 ulp of -log(1 - u), taken in long double and
 * rounded to double, on every input, and u = 0 gives -0.0, as
 * -std::log(1.0) does.
 */
TEST(UnitExponential, WithinOneUlpOfTheTrueValue)
{
    const double zero = detail::unitExponential(0.0);
    EXPECT_TRUE(zero == 0.0 && std::signbit(zero));
    size_t off_by_one = 0;
    for (double u : unitExponentialInputs()) {
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        const double e = detail::unitExponential(u);
        const double truth = double(-std::log(1.0L - u));
        if (e == truth)
            continue;
        ASSERT_EQ(std::nextafter(truth, e), e)
            << "u " << u << ": " << e << " vs " << truth;
        ++off_by_one;
    }
    // Not correctly rounded everywhere: it is a 1-ulp kernel.
    EXPECT_GT(off_by_one, 0u);
}

/**
 * The baseline-ISA block form returns, lane for lane, the scalar
 * form's bits on every input.
 */
TEST(UnitExponential, BaselineBlockFormMatchesScalarBits)
{
    std::vector<double> e = unitExponentialInputs();
    const std::vector<double> us = e;
    detail::unitExponentialsBase(e.data(), e.size());
    for (size_t i = 0; i < us.size(); ++i)
        ASSERT_TRUE(sameBits(e[i], detail::unitExponential(us[i])))
            << "u " << us[i];
}

/**
 * So does the AVX2 block form. Skipped (trivially passing) on hosts
 * without AVX2, where only the baseline form is called.
 */
TEST(UnitExponential, Avx2BlockFormMatchesScalarBits)
{
    if (!avx2Supported())
        GTEST_SKIP() << "host lacks AVX2+FMA; baseline block form only";
    std::vector<double> e = unitExponentialInputs();
    const std::vector<double> us = e;
    detail::unitExponentialsAvx2(e.data(), e.size());
    for (size_t i = 0; i < us.size(); ++i)
        ASSERT_TRUE(sameBits(e[i], detail::unitExponential(us[i])))
            << "u " << us[i];
}

TEST(Rng, SplitStreamsAreDecorrelated)
{
    Rng parent(67);
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 4);
}

} // namespace
} // namespace clite
