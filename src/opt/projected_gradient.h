/**
 * @file
 * Projected-gradient ascent over a product of box-truncated simplices.
 *
 * This is the library's stand-in for the paper's SLSQP call (Sec. 4,
 * Eq. 4–6): CLITE maximizes the acquisition function a(x(j,r)) subject
 * to per-resource bounds (Eq. 5) and per-resource sum equalities
 * (Eq. 6). The feasible set factorizes into one simplex-box block per
 * resource, so projected gradient with the exact projection of
 * opt/simplex.h solves the same constrained program. Gradients are
 * central finite differences (the acquisition has no closed-form
 * gradient through the GP without extra plumbing), with a backtracking
 * (Armijo) line search along the projected arc.
 */

#ifndef CLITE_OPT_PROJECTED_GRADIENT_H
#define CLITE_OPT_PROJECTED_GRADIENT_H

#include <functional>
#include <vector>

namespace clite {
namespace opt {

/**
 * One equality-constrained block of coordinates: the coordinates listed
 * in @p indices must sum to @p total and respect [lo, hi] element-wise.
 * (For CLITE: the allocations of one resource across all jobs.)
 */
struct SimplexBlock
{
    std::vector<size_t> indices; ///< Coordinate indices in the full vector.
    double total = 0.0;          ///< Required sum over the block.
    std::vector<double> lo;      ///< Per-coordinate lower bounds.
    std::vector<double> hi;      ///< Per-coordinate upper bounds.
};

/** Tuning knobs for the projected-gradient solver. */
struct PgOptions
{
    int max_iters = 60;       ///< Outer ascent iterations.
    double fd_step = 1e-3;    ///< Finite-difference half-step.
};

/** Result of one maximize() call. */
struct PgResult
{
    std::vector<double> x; ///< Best feasible point found.
    double value = 0.0;    ///< Objective at x.
    int iterations = 0;    ///< Ascent iterations performed.
    int evaluations = 0;   ///< Objective evaluations consumed.
};

/**
 * Projected-gradient maximizer over a product of SimplexBlocks.
 */
class ProjectedGradientOptimizer
{
  public:
    using Objective = std::function<double(const std::vector<double>&)>;

    /**
     * Batched objective: write f(points[i]) into out[i] for every
     * point. Must be value-identical to the scalar Objective on each
     * point — the solver mixes the two (batched finite-difference
     * probes, scalar line-search trials) and the bit-exact trace
     * contract only holds when they agree to the last ULP, as the
     * acquisition evaluateBatch/evaluate pair does.
     */
    using BatchObjective = std::function<void(
        const std::vector<std::vector<double>>&, double*)>;

    /**
     * @param blocks Disjoint blocks covering (a subset of) the
     *     coordinates; coordinates not covered by any block are held
     *     fixed at their initial value.
     * @param dimension Length of the full optimization vector.
     * @param options Solver knobs.
     */
    ProjectedGradientOptimizer(std::vector<SimplexBlock> blocks,
                               size_t dimension, PgOptions options = {});

    /** Project an arbitrary point onto the feasible set, block by block. */
    std::vector<double> project(const std::vector<double>& y) const;

    /**
     * Run projected-gradient ascent from @p x0 (projected first).
     *
     * @param f Objective to maximize; must be finite on the feasible set.
     * @param x0 Starting point (any point; it is projected).
     */
    PgResult maximize(const Objective& f,
                      const std::vector<double>& x0) const;

    /**
     * As maximize(f, x0), but the 2d finite-difference probe points of
     * each gradient are evaluated through @p fb in one call instead of
     * 2d scalar calls — for objectives with a batched fast path (the
     * GP acquisition via predictBatch). Results are bit-identical to
     * the scalar overload whenever fb matches f value-for-value.
     */
    PgResult maximize(const Objective& f, const BatchObjective& fb,
                      const std::vector<double>& x0) const;

    /**
     * Multi-start wrapper: run maximize() from each start and keep the
     * best result — the first start with the highest value, with
     * iterations and evaluations summed over every start. The starts
     * run concurrently on globalPool() (inline at one thread), so the
     * objectives must be safe to call concurrently; the result is
     * bit-identical at every thread count. If starts throw, the error
     * of the lowest-index one is rethrown once every start has ended.
     * @pre starts is non-empty.
     */
    PgResult maximizeMultiStart(
        const Objective& f,
        const std::vector<std::vector<double>>& starts) const;

    /**
     * Multi-start with batched gradient probes (see maximize overload);
     * @p fb, like @p f, must be safe to call concurrently.
     */
    PgResult maximizeMultiStart(
        const Objective& f, const BatchObjective& fb,
        const std::vector<std::vector<double>>& starts) const;

  private:
    /**
     * Central-difference gradient restricted to block coordinates;
     * probes go through @p fb when non-null, else through @p f.
     */
    std::vector<double> gradient(const Objective& f,
                                 const BatchObjective* fb,
                                 const std::vector<double>& x,
                                 int* evals) const;

    std::vector<SimplexBlock> blocks_;
    size_t dimension_;
    PgOptions options_;
};

} // namespace opt
} // namespace clite

#endif // CLITE_OPT_PROJECTED_GRADIENT_H
