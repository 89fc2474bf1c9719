/**
 * @file
 * Unit tests for the projected-gradient constrained maximizer (the
 * SLSQP stand-in that optimizes CLITE's acquisition under Eq. 5–6).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/error.h"
#include "common/thread_pool.h"
#include "opt/projected_gradient.h"

namespace clite {
namespace opt {
namespace {

SimplexBlock
block(std::vector<size_t> idx, double total, double lo, double hi)
{
    SimplexBlock b;
    b.indices = std::move(idx);
    b.total = total;
    b.lo.assign(b.indices.size(), lo);
    b.hi.assign(b.indices.size(), hi);
    return b;
}

TEST(ProjectedGradient, MaximizesConcaveQuadraticOnSimplex)
{
    // maximize -(x0-3)^2 - (x1-1)^2 subject to x0+x1 = 4, 0.5<=xi<=3.5.
    // Unconstrained optimum (3,1) lies on the constraint: optimal.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 0.5, 3.5)}, 2);
    auto f = [](const std::vector<double>& x) {
        return -(x[0] - 3.0) * (x[0] - 3.0) - (x[1] - 1.0) * (x[1] - 1.0);
    };
    PgResult r = opt.maximize(f, {2.0, 2.0});
    EXPECT_NEAR(r.x[0], 3.0, 1e-2);
    EXPECT_NEAR(r.x[1], 1.0, 1e-2);
}

TEST(ProjectedGradient, ActiveConstraintOptimum)
{
    // maximize x0 subject to x0+x1 = 4, 1<=xi<=3: optimum x0=3.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 1.0, 3.0)}, 2);
    auto f = [](const std::vector<double>& x) { return x[0]; };
    PgResult r = opt.maximize(f, {2.0, 2.0});
    EXPECT_NEAR(r.x[0], 3.0, 1e-3);
    EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(ProjectedGradient, TwoIndependentBlocks)
{
    // Two resources: block {0,1} sums to 4, block {2,3} sums to 6.
    ProjectedGradientOptimizer opt(
        {block({0, 1}, 4.0, 1.0, 3.0), block({2, 3}, 6.0, 1.0, 5.0)}, 4);
    auto f = [](const std::vector<double>& x) {
        return -(x[0] - 2.5) * (x[0] - 2.5) - (x[2] - 4.5) * (x[2] - 4.5);
    };
    PgResult r = opt.maximize(f, {1.0, 3.0, 1.0, 5.0});
    EXPECT_NEAR(r.x[0], 2.5, 1e-2);
    EXPECT_NEAR(r.x[1], 1.5, 1e-2);
    EXPECT_NEAR(r.x[2], 4.5, 1e-2);
    EXPECT_NEAR(r.x[3], 1.5, 1e-2);
}

TEST(ProjectedGradient, UncoveredCoordinatesHeldFixed)
{
    // Coordinate 2 is in no block: must stay at its start value.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 1.0, 3.0)}, 3);
    auto f = [](const std::vector<double>& x) {
        return x[0] + 10.0 * x[2];
    };
    PgResult r = opt.maximize(f, {2.0, 2.0, 0.7});
    EXPECT_DOUBLE_EQ(r.x[2], 0.7);
}

TEST(ProjectedGradient, ProjectMakesArbitraryPointFeasible)
{
    ProjectedGradientOptimizer opt({block({0, 1, 2}, 9.0, 1.0, 5.0)}, 3);
    auto x = opt.project({100.0, -50.0, 3.0});
    EXPECT_NEAR(x[0] + x[1] + x[2], 9.0, 1e-7);
    for (double v : x) {
        EXPECT_GE(v, 1.0 - 1e-9);
        EXPECT_LE(v, 5.0 + 1e-9);
    }
}

TEST(ProjectedGradient, MultiStartKeepsBest)
{
    // Bimodal objective on the segment x0+x1=4: peaks at x0=1 (h=1)
    // and x0=3 (h=2). Multi-start from both basins must find x0=3.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 0.5, 3.5)}, 2);
    auto f = [](const std::vector<double>& x) {
        double p1 = std::exp(-10.0 * (x[0] - 1.0) * (x[0] - 1.0));
        double p2 = 2.0 * std::exp(-10.0 * (x[0] - 3.0) * (x[0] - 3.0));
        return p1 + p2;
    };
    PgResult r = opt.maximizeMultiStart(
        f, {{1.0, 3.0}, {3.0, 1.0}, {2.0, 2.0}});
    EXPECT_NEAR(r.x[0], 3.0, 0.05);
    EXPECT_GT(r.value, 1.9);
}

/** Bitwise equality for doubles. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ProjectedGradient, MultiStartBitIdenticalAcrossThreadCounts)
{
    // Four bumps of different heights on the simplex x0+x1+x2 = 3,
    // so the ten starts climb to different local maxima.
    ProjectedGradientOptimizer opt({block({0, 1, 2}, 3.0, 0.1, 2.8)}, 3);
    auto f = [](const std::vector<double>& x) {
        const double peaks[4][3] = {{2.0, 0.5, 0.5},
                                    {0.5, 2.0, 0.5},
                                    {0.5, 0.5, 2.0},
                                    {1.0, 1.0, 1.0}};
        double v = 0.0;
        for (int p = 0; p < 4; ++p) {
            double d2 = 0.0;
            for (int k = 0; k < 3; ++k)
                d2 += (x[k] - peaks[p][k]) * (x[k] - peaks[p][k]);
            v += (1.0 + 0.3 * p) * std::exp(-4.0 * d2);
        }
        return v;
    };
    std::vector<std::vector<double>> starts;
    for (int s = 0; s < 10; ++s)
        starts.push_back({0.2 + 0.25 * s, 2.5 - 0.2 * s, 0.3 + 0.05 * s});

    const int saved = globalPool().threadCount();
    setGlobalThreadCount(1);
    const PgResult serial = opt.maximizeMultiStart(f, starts);
    for (int threads : {2, 8}) {
        setGlobalThreadCount(threads);
        const PgResult par = opt.maximizeMultiStart(f, starts);
        ASSERT_EQ(par.x.size(), serial.x.size());
        for (size_t i = 0; i < serial.x.size(); ++i)
            EXPECT_TRUE(sameBits(par.x[i], serial.x[i]))
                << "threads=" << threads << " x[" << i << "]";
        EXPECT_TRUE(sameBits(par.value, serial.value))
            << "threads=" << threads;
        EXPECT_EQ(par.iterations, serial.iterations) << "threads=" << threads;
        EXPECT_EQ(par.evaluations, serial.evaluations)
            << "threads=" << threads;
    }
    setGlobalThreadCount(saved);
}

TEST(ProjectedGradient, MultiStartTieKeepsFirstStart)
{
    // Coordinate 2 is in no block and the objective ignores it, so the
    // two starts tie exactly; it only tags which run won.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 0.5, 3.5)}, 3);
    auto f = [](const std::vector<double>& x) {
        return -(x[0] - 3.0) * (x[0] - 3.0);
    };
    const PgResult single = opt.maximize(f, {2.0, 2.0, 0.0});
    const int saved = globalPool().threadCount();
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        const PgResult r =
            opt.maximizeMultiStart(f, {{2.0, 2.0, 0.0}, {2.0, 2.0, 1.0}});
        EXPECT_EQ(r.x[2], 0.0) << "threads=" << threads;
        EXPECT_TRUE(sameBits(r.value, single.value)) << "threads=" << threads;
        EXPECT_EQ(r.evaluations, 2 * single.evaluations)
            << "threads=" << threads;
        EXPECT_EQ(r.iterations, 2 * single.iterations)
            << "threads=" << threads;
    }
    setGlobalThreadCount(saved);
}

TEST(ProjectedGradient, MultiStartRethrowsLowestFailingStart)
{
    // Coordinate 2 (in no block) carries the start index; starts 3 and
    // 5 fail on their first evaluation.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 0.5, 3.5)}, 3);
    auto f = [](const std::vector<double>& x) {
        if (x[2] == 3.0 || x[2] == 5.0)
            throw std::runtime_error("start " + std::to_string(int(x[2])));
        return -(x[0] - 3.0) * (x[0] - 3.0);
    };
    std::vector<std::vector<double>> starts;
    for (int s = 0; s < 8; ++s)
        starts.push_back({2.0, 2.0, double(s)});
    const int saved = globalPool().threadCount();
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        try {
            opt.maximizeMultiStart(f, starts);
            ADD_FAILURE() << "no error at threads=" << threads;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "start 3")
                << "threads=" << threads;
        }
    }
    setGlobalThreadCount(saved);
}

TEST(ProjectedGradient, ValidationErrors)
{
    // Overlapping blocks.
    EXPECT_THROW(ProjectedGradientOptimizer(
                     {block({0, 1}, 4.0, 1.0, 3.0),
                      block({1, 2}, 4.0, 1.0, 3.0)},
                     3),
                 Error);
    // Index out of dimension.
    EXPECT_THROW(ProjectedGradientOptimizer({block({5}, 1.0, 0.0, 2.0)}, 2),
                 Error);
    // Infeasible block.
    EXPECT_THROW(ProjectedGradientOptimizer({block({0, 1}, 10.0, 1.0, 3.0)},
                                            2),
                 Error);
    // Empty multistart.
    ProjectedGradientOptimizer ok({block({0, 1}, 4.0, 1.0, 3.0)}, 2);
    auto f = [](const std::vector<double>&) { return 0.0; };
    EXPECT_THROW(ok.maximizeMultiStart(f, {}), Error);
}

} // namespace
} // namespace opt
} // namespace clite
