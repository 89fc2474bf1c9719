/**
 * @file
 * Unit and property tests for covariance kernels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/rng.h"
#include "gp/kernel.h"
#include "linalg/cholesky.h"

namespace clite {
namespace gp {
namespace {

std::vector<linalg::Vector>
randomPoints(size_t n, size_t dims, Rng& rng)
{
    std::vector<linalg::Vector> pts(n, linalg::Vector(dims));
    for (auto& p : pts)
        for (auto& v : p)
            v = rng.uniform(0.0, 1.0);
    return pts;
}

/** Bitwise equality for doubles. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * The stored σ_f² and ℓ carry exactly the bits of std::exp of
 * logParams(), and a covariance equals the radial profile of the
 * distance divided by per-dimension std::exp, bit for bit.
 */
void
expectMaterializedParams(const Kernel& k, const std::string& state)
{
    const std::vector<double> p = k.logParams();
    EXPECT_TRUE(sameBits(k.signalVariance(), std::exp(p[0]))) << state;
    std::vector<double> ls(k.dims());
    for (size_t d = 0; d < k.dims(); ++d) {
        ls[d] = std::exp(p[k.isotropic() ? 1 : d + 1]);
        EXPECT_TRUE(sameBits(k.lengthscale(d), ls[d])) << state << " d=" << d;
        EXPECT_TRUE(sameBits(k.lengthscales()[d], ls[d]))
            << state << " d=" << d;
    }
    Rng rng(17);
    for (int t = 0; t < 5; ++t) {
        linalg::Vector a(k.dims()), b(k.dims());
        for (size_t d = 0; d < k.dims(); ++d) {
            a[d] = rng.uniform(0.0, 1.0);
            b[d] = rng.uniform(0.0, 1.0);
        }
        double r2 = 0.0;
        for (size_t d = 0; d < k.dims(); ++d) {
            double diff = (a[d] - b[d]) / ls[d];
            r2 += diff * diff;
        }
        EXPECT_TRUE(sameBits(k(a, b), k.fromScaledDistance(std::sqrt(r2))))
            << state << " pair " << t;
    }
}

class KernelKindTest : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<Kernel>
    make(size_t dims = 3, double ls = 0.5, double sv = 2.0) const
    {
        return makeKernel(GetParam(), dims, ls, sv);
    }
};

TEST_P(KernelKindTest, SelfCovarianceIsSignalVariance)
{
    auto k = make();
    linalg::Vector x = {0.1, 0.7, 0.4};
    EXPECT_NEAR((*k)(x, x), 2.0, 1e-12);
}

TEST_P(KernelKindTest, Symmetry)
{
    auto k = make();
    Rng rng(3);
    auto pts = randomPoints(10, 3, rng);
    for (size_t i = 0; i < pts.size(); ++i)
        for (size_t j = 0; j < i; ++j)
            EXPECT_DOUBLE_EQ((*k)(pts[i], pts[j]), (*k)(pts[j], pts[i]));
}

TEST_P(KernelKindTest, DecaysWithDistance)
{
    auto k = make();
    linalg::Vector origin = {0.0, 0.0, 0.0};
    double prev = (*k)(origin, origin);
    for (double d : {0.1, 0.3, 0.6, 1.0, 2.0}) {
        linalg::Vector x = {d, 0.0, 0.0};
        double v = (*k)(origin, x);
        EXPECT_LT(v, prev);
        EXPECT_GT(v, 0.0);
        prev = v;
    }
}

TEST_P(KernelKindTest, GramMatrixIsPositiveDefinite)
{
    auto k = make(4);
    Rng rng(7);
    auto pts = randomPoints(20, 4, rng);
    linalg::Matrix gram(20, 20);
    for (size_t i = 0; i < 20; ++i)
        for (size_t j = 0; j < 20; ++j)
            gram(i, j) = (*k)(pts[i], pts[j]);
    gram.addDiagonal(1e-8);
    EXPECT_NO_THROW(linalg::Cholesky chol(gram));
}

TEST_P(KernelKindTest, LogParamRoundTrip)
{
    auto k = make();
    auto p = k->logParams();
    ASSERT_EQ(p.size(), k->numParams());
    p[0] = std::log(5.0);
    p[1] = std::log(0.25);
    k->setLogParams(p);
    EXPECT_NEAR(k->signalVariance(), 5.0, 1e-12);
    EXPECT_NEAR(k->lengthscale(0), 0.25, 1e-12);
}

TEST_P(KernelKindTest, IsotropicTiesLengthscales)
{
    auto k = make(3);
    k->setIsotropic(true);
    EXPECT_EQ(k->numParams(), 2u);
    k->setLogParams({std::log(1.0), std::log(0.7)});
    for (size_t d = 0; d < 3; ++d)
        EXPECT_NEAR(k->lengthscale(d), 0.7, 1e-12);
}

TEST_P(KernelKindTest, CloneIsIndependentDeepCopy)
{
    auto k = make();
    auto c = k->clone();
    auto p = k->logParams();
    p[0] += 1.0;
    k->setLogParams(p);
    EXPECT_NE(k->signalVariance(), c->signalVariance());
    EXPECT_EQ(c->name(), k->name());
}

TEST_P(KernelKindTest, StoredParamsAreExpOfLogParams)
{
    auto k = make();
    expectMaterializedParams(*k, "constructed");

    k->setLogParams({std::log(1.7), std::log(0.3), std::log(0.9),
                     std::log(2.2)});
    expectMaterializedParams(*k, "ard");
    k->setIsotropic(true);
    expectMaterializedParams(*k, "isotropic");

    auto c = k->clone();
    expectMaterializedParams(*c, "clone");
}

TEST_P(KernelKindTest, DimensionMismatchThrows)
{
    auto k = make(3);
    linalg::Vector x2 = {0.1, 0.2};
    linalg::Vector x3 = {0.1, 0.2, 0.3};
    EXPECT_THROW((*k)(x2, x3), Error);
}

INSTANTIATE_TEST_SUITE_P(Kinds, KernelKindTest,
                         ::testing::Values("matern52", "matern32", "rbf"));

TEST(KernelFactory, UnknownNameThrows)
{
    EXPECT_THROW(makeKernel("spline", 2), Error);
}

TEST(Kernel, Matern52KnownValue)
{
    // r = 1 with unit lengthscale: sigma^2 (1+sqrt5+5/3) e^{-sqrt5}.
    Matern52Kernel k(1, 1.0, 1.0);
    double s = std::sqrt(5.0);
    double expect = (1.0 + s + 5.0 / 3.0) * std::exp(-s);
    EXPECT_NEAR(k({0.0}, {1.0}), expect, 1e-12);
}

TEST(Kernel, RbfKnownValue)
{
    RbfKernel k(1, 1.0, 1.0);
    EXPECT_NEAR(k({0.0}, {1.0}), std::exp(-0.5), 1e-12);
}

TEST(Kernel, Matern32KnownValue)
{
    Matern32Kernel k(1, 1.0, 1.0);
    double s = std::sqrt(3.0);
    EXPECT_NEAR(k({0.0}, {1.0}), (1.0 + s) * std::exp(-s), 1e-12);
}

TEST(Kernel, MaternRougherThanRbf)
{
    // At small distance the Matérn kernels decay faster than RBF
    // (less smoothness), the property the paper wants for the kinked
    // score surface.
    Matern52Kernel m52(1, 1.0, 1.0);
    RbfKernel rbf(1, 1.0, 1.0);
    EXPECT_LT(m52({0.0}, {0.3}), rbf({0.0}, {0.3}));
}

TEST(Kernel, ConstructorValidation)
{
    EXPECT_THROW(Matern52Kernel(0, 1.0, 1.0), Error);
    EXPECT_THROW(Matern52Kernel(2, 0.0, 1.0), Error);
    EXPECT_THROW(Matern52Kernel(2, 1.0, -1.0), Error);
}

} // namespace
} // namespace gp
} // namespace clite
