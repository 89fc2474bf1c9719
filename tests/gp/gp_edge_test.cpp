/**
 * @file
 * Edge-case tests for the GP substrate: isotropic/ARD interplay,
 * cloning, refit behaviour, numerically awkward data.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "gp/gaussian_process.h"

namespace clite {
namespace gp {
namespace {

TEST(GpEdge, IsotropicSurvivesClone)
{
    Matern52Kernel k(3, 0.5, 1.0);
    k.setIsotropic(true);
    auto c = k.clone();
    EXPECT_TRUE(c->isotropic());
    EXPECT_EQ(c->numParams(), 2u);
    c->setLogParams({0.0, std::log(0.9)});
    for (size_t d = 0; d < 3; ++d)
        EXPECT_NEAR(c->lengthscale(d), 0.9, 1e-12);
    // The original is untouched.
    EXPECT_NEAR(k.lengthscale(0), 0.5, 1e-12);
}

TEST(GpEdge, SwitchingIsotropicOffKeepsScales)
{
    RbfKernel k(2, 0.4, 1.0);
    k.setIsotropic(true);
    k.setLogParams({0.0, std::log(0.7)});
    k.setIsotropic(false);
    EXPECT_EQ(k.numParams(), 3u);
    EXPECT_NEAR(k.lengthscale(0), 0.7, 1e-12);
    EXPECT_NEAR(k.lengthscale(1), 0.7, 1e-12);
    k.setLogParams({0.0, std::log(0.2), std::log(1.4)});
    EXPECT_NEAR(k.lengthscale(0), 0.2, 1e-12);
    EXPECT_NEAR(k.lengthscale(1), 1.4, 1e-12);
}

TEST(GpEdge, IsotropicParamCountEnforced)
{
    Matern32Kernel k(4, 0.5, 1.0);
    k.setIsotropic(true);
    EXPECT_THROW(k.setLogParams({0.0, 0.0, 0.0, 0.0, 0.0}), Error);
    k.setIsotropic(false);
    EXPECT_THROW(k.setLogParams({0.0, 0.0}), Error);
}

TEST(GpEdge, RefitReplacesData)
{
    GaussianProcess gp(std::make_unique<Matern52Kernel>(1, 0.5, 1.0),
                       1e-6);
    gp.fit({{0.0}, {1.0}}, {0.0, 1.0});
    EXPECT_EQ(gp.sampleCount(), 2u);
    gp.fit({{0.0}, {0.5}, {1.0}}, {2.0, 2.0, 2.0});
    EXPECT_EQ(gp.sampleCount(), 3u);
    EXPECT_NEAR(gp.predict({0.25}).mean, 2.0, 1e-3);
}

TEST(GpEdge, ExtremeTargetMagnitudesAreStandardizedAway)
{
    GaussianProcess gp(std::make_unique<Matern52Kernel>(1, 0.5, 1.0),
                       1e-6);
    gp.fit({{0.0}, {0.5}, {1.0}}, {1e8, 2e8, 1.5e8});
    Prediction p = gp.predict({0.5});
    EXPECT_NEAR(p.mean, 2e8, 1e6);
    EXPECT_TRUE(std::isfinite(gp.logMarginalLikelihood()));
}

TEST(GpEdge, TinyTargetSpreadStable)
{
    GaussianProcess gp(std::make_unique<Matern52Kernel>(1, 0.5, 1.0),
                       1e-4);
    gp.fit({{0.0}, {0.5}, {1.0}}, {0.5, 0.5 + 1e-9, 0.5 - 1e-9});
    Prediction p = gp.predict({0.25});
    EXPECT_NEAR(p.mean, 0.5, 1e-6);
}

TEST(GpEdge, MoveSemantics)
{
    GaussianProcess a(std::make_unique<Matern52Kernel>(1, 0.5, 1.0),
                      1e-6);
    a.fit({{0.0}, {1.0}}, {0.0, 1.0});
    GaussianProcess b = std::move(a);
    EXPECT_TRUE(b.fitted());
    EXPECT_NEAR(b.predict({1.0}).mean, 1.0, 1e-3);
}

} // namespace
} // namespace gp
} // namespace clite
