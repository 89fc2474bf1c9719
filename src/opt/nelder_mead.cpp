#include "opt/nelder_mead.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/thread_pool.h"

namespace clite {
namespace opt {

namespace {

constexpr double kFTol = 1e-8; ///< Stop when the simplex f-spread is below.
constexpr double kXTol = 1e-8; ///< Stop when the simplex diameter is below.
constexpr double kInitialScale = 0.5; ///< Initial simplex edge length.

} // namespace

NmResult
nelderMeadMinimize(
    const std::function<double(const std::vector<double>&)>& f,
    const std::vector<double>& x0, NmOptions options)
{
    const size_t n = x0.size();
    CLITE_CHECK(n > 0, "nelderMeadMinimize needs a non-empty start point");

    NmResult result;

    // Initial simplex: x0 plus one vertex per axis.
    std::vector<std::vector<double>> simplex(n + 1, x0);
    for (size_t i = 0; i < n; ++i) {
        double delta = kInitialScale;
        if (x0[i] != 0.0)
            delta *= std::fabs(x0[i]);
        simplex[i + 1][i] += delta;
    }

    std::vector<double> values(n + 1);
    for (size_t i = 0; i <= n; ++i) {
        values[i] = f(simplex[i]);
        ++result.evaluations;
    }
    result.f0 = values[0]; // vertex 0 is x0 itself

    std::vector<size_t> order(n + 1);
    for (int iter = 0; iter < options.max_iters; ++iter) {
        result.iterations = iter + 1;
        std::iota(order.begin(), order.end(), size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) { return values[a] < values[b]; });
        size_t best = order[0], worst = order[n], second = order[n - 1];

        // Convergence: f-spread and simplex diameter.
        double f_spread = values[worst] - values[best];
        double diameter = 0.0;
        for (size_t i = 0; i < n; ++i)
            diameter = std::max(
                diameter,
                std::fabs(simplex[worst][i] - simplex[best][i]));
        if (f_spread < kFTol || diameter < kXTol) {
            result.converged = true;
            break;
        }

        // Centroid of all but the worst vertex.
        std::vector<double> centroid(n, 0.0);
        for (size_t v = 0; v <= n; ++v) {
            if (v == worst)
                continue;
            for (size_t i = 0; i < n; ++i)
                centroid[i] += simplex[v][i];
        }
        for (double& c : centroid)
            c /= double(n);

        auto along = [&](double coeff) {
            std::vector<double> p(n);
            for (size_t i = 0; i < n; ++i)
                p[i] = centroid[i] + coeff * (simplex[worst][i]
                                              - centroid[i]);
            return p;
        };

        std::vector<double> reflected = along(-1.0);
        double fr = f(reflected);
        ++result.evaluations;

        if (fr < values[best]) {
            std::vector<double> expanded = along(-2.0);
            double fe = f(expanded);
            ++result.evaluations;
            if (fe < fr) {
                simplex[worst] = std::move(expanded);
                values[worst] = fe;
            } else {
                simplex[worst] = std::move(reflected);
                values[worst] = fr;
            }
        } else if (fr < values[second]) {
            simplex[worst] = std::move(reflected);
            values[worst] = fr;
        } else {
            // Contract toward the better of (worst, reflected).
            double coeff = (fr < values[worst]) ? -0.5 : 0.5;
            std::vector<double> contracted = along(coeff);
            double fc = f(contracted);
            ++result.evaluations;
            if (fc < std::min(values[worst], fr)) {
                simplex[worst] = std::move(contracted);
                values[worst] = fc;
            } else {
                // Shrink every vertex toward the best.
                for (size_t v = 0; v <= n; ++v) {
                    if (v == best)
                        continue;
                    for (size_t i = 0; i < n; ++i)
                        simplex[v][i] = simplex[best][i] +
                                        0.5 * (simplex[v][i]
                                               - simplex[best][i]);
                    values[v] = f(simplex[v]);
                    ++result.evaluations;
                }
            }
        }
    }

    size_t best = 0;
    for (size_t i = 1; i <= n; ++i)
        if (values[i] < values[best])
            best = i;
    result.x = simplex[best];
    result.value = values[best];
    return result;
}

std::vector<NmResult>
nelderMeadMultiStart(
    const std::function<
        std::function<double(const std::vector<double>&)>(size_t)>&
        make_objective,
    const std::vector<std::vector<double>>& starts, NmOptions options,
    ThreadPool* pool)
{
    std::vector<NmResult> results(starts.size());
    auto run = [&](size_t i) {
        auto objective = make_objective(i);
        results[i] = nelderMeadMinimize(objective, starts[i], options);
    };
    if (pool != nullptr) {
        pool->parallelFor(starts.size(), run);
    } else {
        for (size_t i = 0; i < starts.size(); ++i)
            run(i);
    }
    return results;
}

} // namespace opt
} // namespace clite
