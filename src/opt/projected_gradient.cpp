#include "opt/projected_gradient.h"

#include <cmath>

#include "common/error.h"
#include "common/thread_pool.h"
#include "opt/simplex.h"

namespace clite {
namespace opt {

namespace {

constexpr double kInitialStep = 2.0;     ///< First trial step length.
constexpr int kMaxBacktracks = 12;       ///< Armijo halvings per iteration.
constexpr double kMinImprovement = 1e-8; ///< Smaller gains stop the ascent.

} // namespace

ProjectedGradientOptimizer::ProjectedGradientOptimizer(
    std::vector<SimplexBlock> blocks, size_t dimension, PgOptions options)
    : blocks_(std::move(blocks)), dimension_(dimension), options_(options)
{
    std::vector<bool> covered(dimension_, false);
    for (const auto& b : blocks_) {
        CLITE_CHECK(b.indices.size() == b.lo.size() &&
                        b.indices.size() == b.hi.size(),
                    "block bound shapes mismatch block size");
        CLITE_CHECK(!b.indices.empty(), "empty simplex block");
        for (size_t idx : b.indices) {
            CLITE_CHECK(idx < dimension_, "block index " << idx
                            << " out of dimension " << dimension_);
            CLITE_CHECK(!covered[idx],
                        "coordinate " << idx << " in two blocks");
            covered[idx] = true;
        }
        CLITE_CHECK(simplexBoxFeasible(b.total, b.lo, b.hi),
                    "infeasible simplex block with total " << b.total);
    }
}

std::vector<double>
ProjectedGradientOptimizer::project(const std::vector<double>& y) const
{
    CLITE_CHECK(y.size() == dimension_, "project: dimension mismatch");
    std::vector<double> x = y;
    for (const auto& b : blocks_) {
        std::vector<double> sub(b.indices.size());
        for (size_t i = 0; i < b.indices.size(); ++i)
            sub[i] = y[b.indices[i]];
        std::vector<double> proj = projectSimplexBox(sub, b.total, b.lo,
                                                     b.hi);
        for (size_t i = 0; i < b.indices.size(); ++i)
            x[b.indices[i]] = proj[i];
    }
    return x;
}

std::vector<double>
ProjectedGradientOptimizer::gradient(const Objective& f,
                                     const BatchObjective* fb,
                                     const std::vector<double>& x,
                                     int* evals) const
{
    std::vector<double> g(dimension_, 0.0);
    const double h = options_.fd_step;

    if (fb != nullptr) {
        // Gather every x ± h probe of this gradient and score them in
        // one batched call. Each probe vector holds exactly the values
        // the scalar path would pass to f, and the batch objective is
        // value-identical to f per the BatchObjective contract, so
        // g is bit-identical to the scalar branch below.
        std::vector<std::vector<double>> probes;
        std::vector<size_t> probe_idx;
        for (const auto& b : blocks_) {
            for (size_t idx : b.indices) {
                probes.push_back(x);
                probes.back()[idx] = x[idx] + h;
                probes.push_back(x);
                probes.back()[idx] = x[idx] - h;
                probe_idx.push_back(idx);
            }
        }
        std::vector<double> vals(probes.size(), 0.0);
        if (!probes.empty())
            (*fb)(probes, vals.data());
        for (size_t t = 0; t < probe_idx.size(); ++t)
            g[probe_idx[t]] = (vals[2 * t] - vals[2 * t + 1]) / (2.0 * h);
        *evals += int(probes.size());
        return g;
    }

    std::vector<double> xp = x;
    for (const auto& b : blocks_) {
        for (size_t idx : b.indices) {
            double orig = xp[idx];
            xp[idx] = orig + h;
            double fp = f(xp);
            xp[idx] = orig - h;
            double fm = f(xp);
            xp[idx] = orig;
            g[idx] = (fp - fm) / (2.0 * h);
            *evals += 2;
        }
    }
    return g;
}

PgResult
ProjectedGradientOptimizer::maximize(const Objective& f,
                                     const std::vector<double>& x0) const
{
    return maximize(f, BatchObjective(), x0);
}

PgResult
ProjectedGradientOptimizer::maximize(const Objective& f,
                                     const BatchObjective& fb,
                                     const std::vector<double>& x0) const
{
    PgResult result;
    std::vector<double> x = project(x0);
    double fx = f(x);
    result.evaluations = 1;

    for (int iter = 0; iter < options_.max_iters; ++iter) {
        result.iterations = iter + 1;
        std::vector<double> g =
            gradient(f, fb ? &fb : nullptr, x, &result.evaluations);

        // Backtracking along the projected arc: x(t) = P(x + t g).
        double step = kInitialStep;
        bool improved = false;
        for (int bt = 0; bt < kMaxBacktracks; ++bt) {
            std::vector<double> trial = x;
            for (size_t i = 0; i < dimension_; ++i)
                trial[i] += step * g[i];
            trial = project(trial);
            double ft = f(trial);
            ++result.evaluations;
            if (ft > fx + kMinImprovement) {
                x = std::move(trial);
                fx = ft;
                improved = true;
                break;
            }
            step *= 0.5;
        }
        if (!improved)
            break;
    }

    result.x = std::move(x);
    result.value = fx;
    return result;
}

PgResult
ProjectedGradientOptimizer::maximizeMultiStart(
    const Objective& f,
    const std::vector<std::vector<double>>& starts) const
{
    return maximizeMultiStart(f, BatchObjective(), starts);
}

PgResult
ProjectedGradientOptimizer::maximizeMultiStart(
    const Objective& f, const BatchObjective& fb,
    const std::vector<std::vector<double>>& starts) const
{
    CLITE_CHECK(!starts.empty(), "maximizeMultiStart needs >= 1 start");
    // Start i is index i of the pool and writes only slot i; the
    // reduction walks the slots in start order with a strict `>`, so
    // the first start wins ties and the winner is the serial loop's at
    // any thread count.
    std::vector<PgResult> runs(starts.size());
    globalPool().parallelFor(starts.size(), [&](size_t i) {
        runs[i] = maximize(f, fb, starts[i]);
    });
    size_t winner = 0;
    int evaluations = 0;
    int iterations = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        evaluations += runs[i].evaluations;
        iterations += runs[i].iterations;
        if (runs[i].value > runs[winner].value)
            winner = i;
    }
    PgResult best = std::move(runs[winner]);
    best.evaluations = evaluations;
    best.iterations = iterations;
    return best;
}

} // namespace opt
} // namespace clite
