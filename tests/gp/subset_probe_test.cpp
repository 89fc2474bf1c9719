/**
 * @file
 * Contracts of the large-history subset probe tier and the warm
 * simplex (gp/gaussian_process.cpp):
 *
 *  - above the subset threshold the fit engages the subset tier
 *    (lastFitStats().subset_used) and remains bit-identical for every
 *    thread count — the subset is deterministic in (seed, n), built
 *    serially, and the multi-start winner rule is order-stable;
 *  - the exact-objective guard means a subset-tier fit never regresses
 *    the exact log marginal likelihood;
 *  - a warm simplex that regresses on the subset objective falls back
 *    to the restart sweep and produces bits identical to a fit that
 *    never had a warm seed, leaving the caller's RNG stream in the
 *    same position either way;
 *  - a warm simplex seeded from a previously converged fit wins the
 *    probe outright (restarts skipped).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
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

/** A smooth random regression problem with n >= kSubsetThreshold. */
void
makeLargeHistory(size_t n, size_t d, std::vector<linalg::Vector>& xs,
                 std::vector<double>& ys)
{
    Rng data_rng(53);
    xs.assign(n, linalg::Vector(d));
    ys.assign(n, 0.0);
    for (auto& x : xs)
        for (auto& v : x)
            v = data_rng.uniform();
    for (size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (size_t k = 0; k < d; ++k)
            s += std::sin(3.0 * xs[i][k]);
        ys[i] = s / double(d) + 0.05 * data_rng.uniform(-1.0, 1.0);
    }
}

TEST(SubsetProbe, EngagesAboveThresholdAndIsThreadCountInvariant)
{
    const size_t n = 128, d = 6;
    std::vector<linalg::Vector> xs;
    std::vector<double> ys;
    makeLargeHistory(n, d, xs, ys);
    linalg::Vector q(d, 0.4);

    GpFitOptions fo;
    fo.restarts = 2;
    fo.max_iters = 20;
    ASSERT_GE(n, kSubsetThreshold);
    ASSERT_LT(kSubsetSize, n);

    auto fit_with_threads = [&](int threads, double& lml,
                                std::vector<double>& params,
                                Prediction& pred, GpFitStats& stats) {
        setGlobalThreadCount(threads);
        GaussianProcess g(std::make_unique<Matern52Kernel>(d, 0.3), 1e-4);
        g.fit(xs, ys);
        Rng rng(97);
        lml = g.optimizeHyperparameters(rng, fo);
        params = g.kernel().logParams();
        pred = g.predict(q);
        stats = g.lastFitStats();
    };

    double lml1;
    std::vector<double> params1;
    Prediction pred1;
    GpFitStats stats1;
    fit_with_threads(1, lml1, params1, pred1, stats1);
    EXPECT_TRUE(stats1.subset_used);
    EXPECT_GT(stats1.probe_evals, 0u);

    for (int threads : {2, 4, 8}) {
        double lml;
        std::vector<double> params;
        Prediction pred;
        GpFitStats stats;
        fit_with_threads(threads, lml, params, pred, stats);
        EXPECT_TRUE(stats.subset_used) << "threads " << threads;
        EXPECT_EQ(stats.probe_evals, stats1.probe_evals)
            << "threads " << threads;
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

TEST(SubsetProbe, NeverRegressesExactLogMarginalLikelihood)
{
    const size_t n = 128, d = 4;
    std::vector<linalg::Vector> xs;
    std::vector<double> ys;
    makeLargeHistory(n, d, xs, ys);

    GaussianProcess g(std::make_unique<Matern52Kernel>(d, 0.3), 1e-4);
    g.fit(xs, ys);
    const double entry = g.logMarginalLikelihood();

    GpFitOptions fo;
    fo.restarts = 2;
    fo.max_iters = 20;
    Rng rng(19);
    const double fitted = g.optimizeHyperparameters(rng, fo);
    EXPECT_TRUE(g.lastFitStats().subset_used);
    EXPECT_GE(fitted, entry); // exact-objective guard
    EXPECT_TRUE(sameBits(fitted, g.logMarginalLikelihood()));
}

TEST(SubsetProbe, RegressingWarmSimplexFallsBackToRestarts)
{
    const size_t n = 128, d = 4;
    std::vector<linalg::Vector> xs;
    std::vector<double> ys;
    makeLargeHistory(n, d, xs, ys);

    GpFitOptions fo;
    fo.restarts = 2;
    fo.max_iters = 20;

    // Reference: never warm-seeded.
    GaussianProcess fresh(std::make_unique<Matern52Kernel>(d, 0.3), 1e-4);
    fresh.fit(xs, ys);
    Rng fresh_rng(97);
    const double fresh_lml = fresh.optimizeHyperparameters(fresh_rng, fo);
    EXPECT_FALSE(fresh.lastFitStats().warm_hit);
    const double fresh_next_draw = fresh_rng.uniform();

    // Same fit, but seeded with an absurd warm vector (outside the
    // |v| <= 12 probe domain): every warm-probe evaluation is
    // rejected, the probe regresses, and the restart sweep runs.
    GaussianProcess warmed(std::make_unique<Matern52Kernel>(d, 0.3), 1e-4);
    warmed.fit(xs, ys);
    const size_t nparams = warmed.kernel().logParams().size() + 1;
    warmed.seedWarmStart(std::vector<double>(nparams, 20.0), 0.2);
    Rng warm_rng(97);
    const double warm_lml = warmed.optimizeHyperparameters(warm_rng, fo);

    EXPECT_TRUE(warmed.lastFitStats().subset_used);
    EXPECT_FALSE(warmed.lastFitStats().warm_hit);
    EXPECT_TRUE(sameBits(warm_lml, fresh_lml));
    const std::vector<double> pw = warmed.kernel().logParams();
    const std::vector<double> pf = fresh.kernel().logParams();
    ASSERT_EQ(pw.size(), pf.size());
    for (size_t i = 0; i < pw.size(); ++i)
        EXPECT_TRUE(sameBits(pw[i], pf[i])) << "param " << i;
    // The restart perturbations are drawn before the warm probe runs,
    // so the caller's stream position is branch-invariant.
    EXPECT_TRUE(sameBits(warm_rng.uniform(), fresh_next_draw));
}

TEST(SubsetProbe, ConvergedWarmSimplexWinsWithoutRestarts)
{
    const size_t n = 128, d = 4;
    std::vector<linalg::Vector> xs;
    std::vector<double> ys;
    makeLargeHistory(n, d, xs, ys);

    GpFitOptions fo;
    fo.restarts = 2;
    fo.max_iters = 25;

    // First fit converges through the restart sweep; its winning
    // hyper-vector is what a controller would persist.
    GaussianProcess first(std::make_unique<Matern52Kernel>(d, 0.3), 1e-4);
    first.fit(xs, ys);
    Rng rng1(97);
    first.optimizeHyperparameters(rng1, fo);
    ASSERT_TRUE(first.lastFitStats().subset_used);
    std::vector<double> winner = first.kernel().logParams();
    winner.push_back(std::log(1e-4)); // fit_noise defaults on

    // A fresh model (default hyper-parameters) seeded with that
    // winner: the warm probe descends from a converged point and must
    // beat the subset objective at the defaults.
    GaussianProcess second(std::make_unique<Matern52Kernel>(d, 0.3), 1e-4);
    second.fit(xs, ys);
    second.seedWarmStart(winner, 0.1);
    Rng rng2(97);
    const double lml = second.optimizeHyperparameters(rng2, fo);
    EXPECT_TRUE(second.lastFitStats().warm_hit);
    EXPECT_TRUE(std::isfinite(lml));
    // The warm probe spends a single descent, not restarts+1 of them:
    // strictly fewer probe evaluations than the fallback path burnt.
    EXPECT_LT(second.lastFitStats().probe_evals,
              first.lastFitStats().probe_evals);
}

} // namespace
} // namespace gp
} // namespace clite
