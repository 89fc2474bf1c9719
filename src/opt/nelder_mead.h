/**
 * @file
 * Nelder-Mead downhill simplex minimizer.
 *
 * Used where the paper's reference implementation relies on generic
 * scipy optimizers without constraints: fitting the Gaussian-process
 * hyper-parameters by maximizing the log marginal likelihood (we
 * minimize its negation over log-hyper-parameters, which keeps the
 * search unconstrained and positively-scaled).
 */

#ifndef CLITE_OPT_NELDER_MEAD_H
#define CLITE_OPT_NELDER_MEAD_H

#include <functional>
#include <vector>

namespace clite {

class ThreadPool;

namespace opt {

/** Tuning knobs for Nelder-Mead. */
struct NmOptions
{
    int max_iters = 200; ///< Maximum simplex iterations.
};

/** Result of a minimization run. */
struct NmResult
{
    std::vector<double> x; ///< Best point found.
    double value = 0.0;    ///< Objective at x.
    double f0 = 0.0;       ///< Objective at the starting point x0
                           ///< (vertex 0 of the initial simplex) —
                           ///< callers comparing "did the run beat its
                           ///< start" read this instead of paying a
                           ///< duplicate evaluation.
    int iterations = 0;    ///< Iterations performed.
    int evaluations = 0;   ///< Objective evaluations consumed.
    bool converged = false;///< True when a tolerance triggered the stop.
};

/**
 * Minimize @p f starting from @p x0 using the standard Nelder-Mead
 * moves (reflect 1, expand 2, contract 0.5, shrink 0.5).
 *
 * @param f Objective; may return +infinity outside its domain.
 * @param x0 Starting point (also sets the dimension).
 * @param options Solver knobs.
 */
NmResult nelderMeadMinimize(
    const std::function<double(const std::vector<double>&)>& f,
    const std::vector<double>& x0, NmOptions options = {});

/**
 * Run one independent minimization per starting point and return the
 * results in start order. Each run gets its own objective instance
 * from @p make_objective(i), so runs may execute concurrently on
 * @p pool (the caller participates; pass nullptr for strictly serial
 * execution). Because run i touches only objective i and result slot
 * i, the returned values are identical for every thread count —
 * including nullptr — which is how the GP hyper-fit keeps its restart
 * search reproducible while fanning out.
 *
 * @param make_objective Factory: objective for start index i. Called
 *     once per start, from whichever thread claims the run — it must
 *     be safe to invoke concurrently (typically it reads shared
 *     immutable problem state and allocates per-run scratch). The
 *     returned callable is invoked only from run i.
 * @param starts Starting points (all the same dimension).
 * @param options Solver knobs shared by every run.
 * @param pool Worker pool, or nullptr.
 */
std::vector<NmResult> nelderMeadMultiStart(
    const std::function<
        std::function<double(const std::vector<double>&)>(size_t)>&
        make_objective,
    const std::vector<std::vector<double>>& starts,
    NmOptions options = {}, ThreadPool* pool = nullptr);

} // namespace opt
} // namespace clite

#endif // CLITE_OPT_NELDER_MEAD_H
