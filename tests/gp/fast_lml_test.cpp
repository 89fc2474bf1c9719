/**
 * @file
 * Contracts of the fast hyper-fit probe tier (gp/fast_lml.h):
 *
 *  - the baseline-ISA and AVX2+FMA variants return bit-identical
 *    values (the header's cross-CPU reproducibility promise);
 *  - the fast objective agrees with the exact log-marginal-likelihood
 *    objective to roundoff;
 *  - optimizeHyperparameters is bit-identical for every thread count,
 *    i.e. the parallel Nelder-Mead restarts change wall-clock only,
 *    never the fitted model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gp/fast_lml.h"
#include "gp/gaussian_process.h"
#include "gp/kernel.h"

namespace clite {
namespace gp {
namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A random hyper-fit problem over its own backing storage. */
struct ProblemData
{
    std::vector<double> x_t;   // dims-major training inputs
    std::vector<double> sqd;   // pairwise squared distances
    std::vector<double> ys;
    FastLmlProblem problem;

    ProblemData(size_t n, size_t d, RadialForm form, bool isotropic,
                uint64_t seed)
        : x_t(d * n), sqd(n * (n - 1) / 2, 0.0), ys(n)
    {
        Rng rng(seed);
        for (auto& v : x_t)
            v = rng.uniform(-1.0, 1.0);
        for (auto& v : ys)
            v = rng.uniform(-1.0, 1.0);
        size_t pair = 0;
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < i; ++j, ++pair)
                for (size_t k = 0; k < d; ++k) {
                    const double df = x_t[k * n + i] - x_t[k * n + j];
                    sqd[pair] += df * df;
                }
        problem.n = n;
        problem.dims = d;
        problem.isotropic = isotropic;
        problem.form = form;
        problem.pair_sqdist = sqd.data();
        problem.x_t = x_t.data();
        problem.ys_std = ys.data();
    }
};

/**
 * Both ISA variants of the evaluator return the same bits for the
 * same probe — across all three radial forms, ARD and isotropic
 * modes, random in-domain probes, and the out-of-domain rejection
 * path. Skipped (trivially passing) on hosts without AVX2+FMA, where
 * only the baseline variant is callable.
 */
TEST(FastLml, BaseAndAvx2VariantsBitIdentical)
{
    if (!detail::avx2Supported())
        GTEST_SKIP() << "host lacks AVX2+FMA; single variant only";
    for (int form = 0; form < 3; ++form) {
        for (bool isotropic : {false, true}) {
            ProblemData data(61, 12, RadialForm(form), isotropic,
                             101 + uint64_t(form));
            const size_t np = isotropic ? 3 : 14;
            Rng rng(7 + uint64_t(form));
            FastLmlScratch sc_base, sc_avx2;
            for (int trial = 0; trial < 100; ++trial) {
                std::vector<double> p(np);
                for (auto& v : p)
                    v = rng.uniform(-2.0, 2.0);
                if (trial % 10 == 9)
                    p[0] = 13.0; // out-of-domain gate: both reject
                const double a = detail::fastNegLogMarginalBase(
                    data.problem, p.data(), np, sc_base);
                const double b = detail::fastNegLogMarginalAvx2(
                    data.problem, p.data(), np, sc_avx2);
                ASSERT_TRUE(sameBits(a, b))
                    << "form " << form << " iso " << isotropic
                    << " trial " << trial << ": " << a << " vs " << b;
            }
        }
    }
}

/**
 * Every kernel makeKernel() builds has a radial form, so the hyper-fit
 * always probes through the fast tier; any other name is an error, not
 * a silent fallback.
 */
TEST(FastLml, RadialFormForEveryFactoryKernel)
{
    EXPECT_EQ(radialFormFor(makeKernel("matern52", 2)->name()),
              RadialForm::Matern52);
    EXPECT_EQ(radialFormFor(makeKernel("matern32", 2)->name()),
              RadialForm::Matern32);
    EXPECT_EQ(radialFormFor(makeKernel("rbf", 2)->name()), RadialForm::Rbf);
    EXPECT_THROW(radialFormFor("spline"), Error);
}

/**
 * The fast probe value matches the exact objective (the negated
 * logMarginalLikelihood the search re-applies to the winner) to
 * roundoff at the model's own fitted hyper-parameters.
 */
TEST(FastLml, AgreesWithExactObjective)
{
    const size_t n = 48, d = 12;
    Rng rng(211);
    std::vector<linalg::Vector> xs(n, linalg::Vector(d));
    std::vector<double> ys(n);
    for (auto& x : xs)
        for (auto& v : x)
            v = rng.uniform();
    for (auto& y : ys)
        y = rng.uniform();

    GaussianProcess g(std::make_unique<Matern52Kernel>(d, 0.3), 1e-4);
    g.fit(xs, ys);
    const double exact = g.logMarginalLikelihood();

    // Rebuild the same problem the optimizer hands the fast tier.
    // Targets must be standardized exactly as the model standardizes.
    double mean = 0.0;
    for (double y : ys)
        mean += y;
    mean /= double(n);
    double var = 0.0;
    for (double y : ys)
        var += (y - mean) * (y - mean);
    double scale = std::sqrt(var / double(n));
    if (scale <= 0.0)
        scale = 1.0;

    ProblemData data(n, d, RadialForm::Matern52, false, 0);
    for (size_t k = 0; k < d; ++k)
        for (size_t i = 0; i < n; ++i)
            data.x_t[k * n + i] = xs[i][k];
    std::fill(data.sqd.begin(), data.sqd.end(), 0.0);
    size_t pair = 0;
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < i; ++j, ++pair)
            for (size_t k = 0; k < d; ++k) {
                const double df = xs[i][k] - xs[j][k];
                data.sqd[pair] += df * df;
            }
    for (size_t i = 0; i < n; ++i)
        data.ys[i] = (ys[i] - mean) / scale;

    std::vector<double> p = g.kernel().logParams();
    p.push_back(std::log(g.noiseVariance()));
    FastLmlScratch sc;
    const double fast =
        fastNegLogMarginal(data.problem, p.data(), p.size(), sc);
    EXPECT_NEAR(-fast, exact, 1e-9 * (1.0 + std::fabs(exact)));
}

/**
 * optimizeHyperparameters fans its restarts out on the global pool;
 * the fitted result must not depend on how many workers ran them.
 * Pinned by refitting identical models under thread counts 1..8 and
 * comparing the achieved LML, the fitted log-params, and a posterior
 * prediction bit for bit against the serial run.
 */
TEST(FastLml, HyperFitBitIdenticalAcrossThreadCounts)
{
    const size_t n = 32, d = 6;
    Rng data_rng(31);
    std::vector<linalg::Vector> xs(n, linalg::Vector(d));
    std::vector<double> ys(n);
    for (auto& x : xs)
        for (auto& v : x)
            v = data_rng.uniform();
    for (auto& y : ys)
        y = data_rng.uniform();
    linalg::Vector q(d, 0.4);

    GpFitOptions fo;
    fo.restarts = 4;
    fo.max_iters = 25;

    auto fit_with_threads = [&](int threads, double& lml,
                                std::vector<double>& params,
                                Prediction& pred) {
        setGlobalThreadCount(threads);
        GaussianProcess g(std::make_unique<Matern52Kernel>(d, 0.3), 1e-4);
        g.fit(xs, ys);
        Rng rng(97); // same restart perturbations for every run
        lml = g.optimizeHyperparameters(rng, fo);
        params = g.kernel().logParams();
        pred = g.predict(q);
    };

    double lml1;
    std::vector<double> params1;
    Prediction pred1;
    fit_with_threads(1, lml1, params1, pred1);

    for (int threads : {2, 4, 8}) {
        double lml;
        std::vector<double> params;
        Prediction pred;
        fit_with_threads(threads, lml, params, pred);
        EXPECT_TRUE(sameBits(lml, lml1)) << "threads " << threads;
        ASSERT_EQ(params.size(), params1.size());
        for (size_t i = 0; i < params.size(); ++i)
            EXPECT_TRUE(sameBits(params[i], params1[i]))
                << "threads " << threads << " param " << i;
        EXPECT_TRUE(sameBits(pred.mean, pred1.mean))
            << "threads " << threads;
        EXPECT_TRUE(sameBits(pred.variance, pred1.variance))
            << "threads " << threads;
    }
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
}

} // namespace
} // namespace gp
} // namespace clite
