/**
 * @file
 * Unit and property tests for the Allocation configuration matrix.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "platform/allocation.h"
#include "stats/sampling.h"

namespace clite {
namespace platform {
namespace {

ServerConfig
testbed()
{
    return ServerConfig::xeonSilver4114();
}

class AllocationJobCount : public ::testing::TestWithParam<size_t>
{
};

TEST_P(AllocationJobCount, EqualShareIsValidAndBalanced)
{
    const size_t njobs = GetParam();
    Allocation a = Allocation::equalShare(njobs, testbed());
    EXPECT_TRUE(a.valid());
    for (size_t r = 0; r < a.resources(); ++r) {
        int lo = a.get(0, r), hi = a.get(0, r);
        for (size_t j = 1; j < njobs; ++j) {
            lo = std::min(lo, a.get(j, r));
            hi = std::max(hi, a.get(j, r));
        }
        EXPECT_LE(hi - lo, 1) << "resource " << r;
    }
}

TEST_P(AllocationJobCount, MaxForGivesExtremumShape)
{
    const size_t njobs = GetParam();
    if (njobs < 2)
        return;
    Allocation a = Allocation::maxFor(1, njobs, testbed());
    EXPECT_TRUE(a.valid());
    for (size_t r = 0; r < a.resources(); ++r) {
        for (size_t j = 0; j < njobs; ++j) {
            if (j == 1)
                EXPECT_EQ(a.get(j, r),
                          a.resourceUnits(r) - int(njobs) + 1);
            else
                EXPECT_EQ(a.get(j, r), 1);
        }
    }
}

TEST_P(AllocationJobCount, FlattenRoundTrip)
{
    const size_t njobs = GetParam();
    Rng rng(njobs * 13);
    Allocation a(njobs, testbed());
    for (size_t r = 0; r < a.resources(); ++r) {
        auto parts = stats::sampleComposition(a.resourceUnits(r),
                                              int(njobs), rng, 1);
        for (size_t j = 0; j < njobs; ++j)
            a.set(j, r, parts[j]);
    }
    a.validate();
    Allocation back = Allocation::fromFlatNormalized(
        a.flattenNormalized(), njobs, testbed());
    EXPECT_TRUE(back == a);
}

INSTANTIATE_TEST_SUITE_P(JobCounts, AllocationJobCount,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Allocation, RowIsTheJobsUnitsOfEveryResource)
{
    Allocation a = Allocation::maxFor(0, 2, testbed());
    EXPECT_EQ(a.row(0), (std::vector<int>{9, 10, 9}));
    EXPECT_EQ(a.row(1), (std::vector<int>{1, 1, 1}));
    EXPECT_THROW(a.row(2), Error);
}

TEST(Allocation, ValidityDetectsBadSumsAndZeroRows)
{
    Allocation a = Allocation::equalShare(2, testbed());
    EXPECT_TRUE(a.valid());
    a.set(0, 0, a.get(0, 0) + 1); // breaks the column sum
    EXPECT_FALSE(a.valid());
    EXPECT_THROW(a.validate(), Error);
    a.set(0, 0, a.get(0, 0) - 1);
    a.set(1, 1, 0); // below one unit
    a.set(0, 1, a.resourceUnits(1)); // restore sum
    EXPECT_FALSE(a.valid());
}

TEST(Allocation, TransferUnitSemantics)
{
    Allocation a = Allocation::equalShare(2, testbed());
    int before0 = a.get(0, 0), before1 = a.get(1, 0);
    EXPECT_TRUE(a.transferUnit(0, 0, 1));
    EXPECT_EQ(a.get(0, 0), before0 - 1);
    EXPECT_EQ(a.get(1, 0), before1 + 1);
    EXPECT_TRUE(a.valid());

    // Drain job 0 to one unit; further transfers must refuse.
    while (a.get(0, 0) > 1)
        a.transferUnit(0, 0, 1);
    EXPECT_FALSE(a.transferUnit(0, 0, 1));
    EXPECT_TRUE(a.valid());
}

TEST(Allocation, KeyIsCanonicalAndEqualityConsistent)
{
    Allocation a = Allocation::equalShare(2, testbed());
    Allocation b = Allocation::equalShare(2, testbed());
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.key(), b.key());
    b.transferUnit(0, 0, 1);
    EXPECT_FALSE(a == b);
    EXPECT_NE(a.key(), b.key());
}

TEST(Allocation, FromFlatRepairsNonIntegerPoints)
{
    // A continuous point off the lattice must round to a valid
    // allocation with exact column sums.
    std::vector<double> flat = {0.33, 0.44, 0.21, 0.67, 0.56, 0.79};
    Allocation a = Allocation::fromFlatNormalized(flat, 2, testbed());
    EXPECT_TRUE(a.valid());
}

TEST(Allocation, TooManyJobsRejected)
{
    EXPECT_THROW(Allocation(11, testbed()), Error);
    EXPECT_THROW(Allocation(0, testbed()), Error);
}

TEST(Allocation, FromFlatWrongLengthRejected)
{
    std::vector<double> flat(5, 0.3);
    EXPECT_THROW(Allocation::fromFlatNormalized(flat, 2, testbed()),
                 Error);
}

TEST(Allocation, MaxForOutOfRangeRejected)
{
    EXPECT_THROW(Allocation::maxFor(3, 3, testbed()), Error);
}

TEST(Allocation, WithJobAddedPreservesShapeKnowledge)
{
    // The newcomer takes roughly its fair share from the richest
    // incumbents; existing relative order is preserved and the result
    // satisfies the Eq. 4-6 invariants.
    Allocation a = Allocation::maxFor(0, 3, testbed());
    Allocation b = a.withJobAdded();
    EXPECT_EQ(b.jobs(), 4u);
    EXPECT_TRUE(b.valid());
    for (size_t r = 0; r < b.resources(); ++r) {
        EXPECT_GE(b.get(3, r), 1);
        // Units came out of the favoured job 0, not the 1-unit jobs.
        EXPECT_EQ(b.get(1, r), a.get(1, r));
        EXPECT_EQ(b.get(2, r), a.get(2, r));
    }
}

TEST(Allocation, WithJobRemovedRedistributesToPoorest)
{
    Allocation a = Allocation::maxFor(1, 3, testbed());
    Allocation b = a.withJobRemoved(1);
    EXPECT_EQ(b.jobs(), 2u);
    EXPECT_TRUE(b.valid());
    // All of job 1's units went back to the survivors.
    for (size_t r = 0; r < b.resources(); ++r)
        EXPECT_EQ(b.get(0, r) + b.get(1, r), b.resourceUnits(r));
}

TEST(Allocation, WithJobRemovedKeepsRelativeOrder)
{
    Allocation a = Allocation::equalShare(4, testbed());
    a.transferUnit(0, 0, 3); // make rows distinguishable
    Allocation b = a.withJobRemoved(1);
    EXPECT_EQ(b.jobs(), 3u);
    EXPECT_TRUE(b.valid());
    // Row 0 keeps its (possibly topped-up) units; old rows 2,3 slide
    // down to 1,2 with at least their previous units.
    for (size_t r = 0; r < b.resources(); ++r) {
        EXPECT_GE(b.get(1, r), a.get(2, r));
        EXPECT_GE(b.get(2, r), a.get(3, r));
    }
}

TEST(Allocation, WithJobRemovedRejectsBadIndex)
{
    Allocation a = Allocation::equalShare(2, testbed());
    EXPECT_THROW(a.withJobRemoved(2), Error);
    Allocation single = Allocation::equalShare(1, testbed());
    EXPECT_THROW(single.withJobRemoved(0), Error);
}

TEST(Allocation, AddRemoveRoundTripStaysValid)
{
    Rng rng(77);
    Allocation a = Allocation::equalShare(3, testbed());
    for (int step = 0; step < 30; ++step) {
        Allocation grown = a.withJobAdded();
        ASSERT_TRUE(grown.valid());
        size_t victim =
            size_t(rng.uniformInt(0, int64_t(grown.jobs()) - 1));
        a = grown.withJobRemoved(victim);
        ASSERT_TRUE(a.valid());
        ASSERT_EQ(a.jobs(), 3u);
    }
}

} // namespace
} // namespace platform
} // namespace clite
