/**
 * @file
 * Gaussian-process regression — CLITE's surrogate model (Sec. 4).
 *
 * A GP with a Matérn kernel is fit to the (configuration, score) pairs
 * sampled so far; its posterior mean μ(x) and standard deviation σ(x)
 * feed the Expected Improvement acquisition (Fig. 3 of the paper).
 * The implementation follows Rasmussen & Williams Algorithm 2.1:
 * Cholesky of K + σ_n² I, α = K⁻¹y, predictive mean kᵀα and variance
 * k(x,x) − ‖L⁻¹k‖². Targets are standardized internally so kernel
 * hyper-parameter defaults are scale-free.
 *
 * Two structural optimizations keep the online decision loop cheap as
 * the sample set grows (the per-iteration overhead the paper bounds in
 * Sec. 5.2 / Fig. 15):
 *
 *  - **Stationary-distance caching.** All kernels depend on the inputs
 *    only through per-dimension squared differences, which never
 *    change for a fixed training set. fit() precomputes them once;
 *    every refit() under new hyper-parameters — the inner loop of
 *    optimizeHyperparameters — rebuilds the Gram matrix from the cache
 *    plus the kernel's radial profile without re-touching raw inputs.
 *    The standardized target vector is cached the same way.
 *
 *  - **Incremental updates.** addSample() extends the training set by
 *    one point in O(n²) via a Cholesky rank-append instead of the
 *    O(n³) refactorization of a full fit(); fitIncremental() detects
 *    when a proposed training set merely appends to the current one
 *    and takes that path automatically.
 */

#ifndef CLITE_GP_GAUSSIAN_PROCESS_H
#define CLITE_GP_GAUSSIAN_PROCESS_H

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "gp/kernel.h"
#include "linalg/cholesky.h"

namespace clite {
namespace gp {

/** Posterior prediction at one point. */
struct Prediction
{
    double mean = 0.0;   ///< Posterior mean μ(x).
    double variance = 0.0; ///< Posterior variance σ²(x) (>= 0).

    /** Posterior standard deviation σ(x). */
    double stddev() const;
};

/** Options for hyper-parameter fitting. */
struct GpFitOptions
{
    int restarts = 2;          ///< Extra random restarts beyond current.
    int max_iters = 80;        ///< Nelder-Mead iterations per restart.
    bool fit_noise = true;     ///< Also optimize the noise variance.
};

/**
 * History size at which hyper-fit probes switch to the subset tier:
 * from it on, Nelder-Mead probes rank hyper-vectors by the LML of a
 * deterministic, score-stratified subset of kSubsetSize training
 * points and only the winner is re-evaluated (and the model refit)
 * through the exact O(n³) objective. Below it every probe sees the
 * full history.
 */
constexpr size_t kSubsetThreshold = 96;
/** Training points in the subset tier's probe problem. */
constexpr size_t kSubsetSize = 64;
static_assert(kSubsetSize >= 2 && kSubsetSize < kSubsetThreshold,
              "the probe subset must be a strict subset of the history");

/**
 * What the last optimizeHyperparameters() call actually did — the
 * observability hook behind ControllerResult's refit counters, so
 * cadence/subset regressions show up in printed stats instead of a
 * profiler.
 */
struct GpFitStats
{
    uint64_t probe_evals = 0; ///< Objective evaluations spent on probes.
    bool subset_used = false; ///< Probes ranked on the subset tier.
    bool warm_hit = false;    ///< Warm simplex won; restarts skipped.
    bool improved = false;    ///< Winner strictly beat the start point.
};

/**
 * Gaussian-process regressor.
 */
class GaussianProcess
{
  public:
    /**
     * @param kernel Covariance kernel (owned).
     * @param noise_variance Observation noise σ_n² (> 0).
     */
    GaussianProcess(std::unique_ptr<Kernel> kernel,
                    double noise_variance = 1e-4);

    GaussianProcess(const GaussianProcess& other);
    GaussianProcess& operator=(const GaussianProcess& other);
    GaussianProcess(GaussianProcess&&) = default;
    GaussianProcess& operator=(GaussianProcess&&) = default;

    /**
     * Fit to training data (replaces any previous data). O(n³).
     *
     * @param x Training inputs, all of kernel().dims() length.
     * @param y Training targets, same length as x.
     */
    void fit(const std::vector<linalg::Vector>& x,
             const std::vector<double>& y);

    /**
     * Extend the training set by one observation in O(n²): the
     * distance cache and kernel row grow by one point, the Cholesky
     * factor is rank-appended, and α is recomputed through the cached
     * factor. Numerically equivalent to a full fit() on the extended
     * data (the appended factor matches the batch factor row for row).
     * Falls back to a full refactorization only when the new point is
     * so close to an existing one that the appended pivot loses
     * positivity. Hyper-parameters are left untouched.
     *
     * @pre fitted()
     */
    void addSample(const linalg::Vector& x, double y);

    /**
     * fit() that recognizes pure extensions: when the current training
     * set is an exact prefix of (@p x, @p y), only the new tail is
     * added via addSample() — the O(n²) path. Any other change
     * (reordering, removal, e.g. a sample quarantined by the fault
     * path) triggers a full fit(). Callers that maintain a filtered
     * sample list can therefore call this unconditionally.
     */
    void fitIncremental(const std::vector<linalg::Vector>& x,
                        const std::vector<double>& y);

    /** True once fit() has been called with at least one point. */
    bool fitted() const { return chol_.has_value(); }

    /** Number of training points. */
    size_t sampleCount() const { return x_.size(); }

    /** The kernel in use. */
    const Kernel& kernel() const { return *kernel_; }

    /** Observation noise variance. */
    double noiseVariance() const { return noise_variance_; }

    /**
     * Posterior prediction at @p x. Read-only and safe to call
     * concurrently from multiple threads on the same fitted model
     * (the parallel acquisition path relies on this).
     * @pre fitted()
     */
    Prediction predict(const linalg::Vector& x) const;

    /**
     * Batched posterior: means[i] / variances[i] for the candidates
     * xs[begin .. begin+count). One call evaluates the whole block —
     * the cross-covariance panel is filled row by row from a
     * structure-of-arrays pack of the block (Kernel::
     * crossCovarianceRow), the B triangular solves collapse into one
     * blocked panel substitution (linalg::solveLowerPanel), and the
     * mean/variance reductions run across the panel. Every candidate's
     * accumulation order matches the scalar path exactly, so
     *
     *     predictBatch(xs, b, c, m, v)  ≡  predict(xs[b+i])  ∀i
     *
     * bit for bit (tests/gp/gp_batch_test.cpp pins this across all
     * kernels and ragged block sizes; the %.17g posterior golden stays
     * byte-identical). Workspace comes from the calling thread's
     * ScratchArena, so steady-state rounds are allocation-free, and
     * like predict() this is safe to call concurrently.
     *
     * @pre fitted(); every xs[i] in range has kernel().dims() entries.
     */
    void predictBatch(const std::vector<linalg::Vector>& xs, size_t begin,
                      size_t count, double* means,
                      double* variances) const;

    /** Convenience: batched posterior over all of @p xs. */
    std::vector<Prediction>
    predictBatch(const std::vector<linalg::Vector>& xs) const;

    /**
     * Log marginal likelihood of the current data under the current
     * hyper-parameters. @pre fitted()
     */
    double logMarginalLikelihood() const;

    /**
     * Optimize kernel (and optionally noise) hyper-parameters by
     * maximizing the log marginal likelihood with Nelder-Mead plus
     * random restarts, then refit.
     *
     * @param rng Source for restart perturbations.
     * @param options Fitting knobs.
     * @return The best log marginal likelihood achieved.
     * @pre fitted()
     */
    double optimizeHyperparameters(Rng& rng,
                                   const GpFitOptions& options = {});

    /** Stats of the most recent optimizeHyperparameters() call. */
    const GpFitStats& lastFitStats() const { return fit_stats_; }

    /**
     * Seed (or overwrite) the persisted warm-start hyper-vector the
     * subset tier probes first. Exposed for tests and benchmarks; the
     * production path persists the winner of each refit on its own.
     * Pass the full probe vector (kernel log-params, plus log noise
     * when fitting noise). @p scale is the initial simplex scale of
     * the warm probe.
     */
    void seedWarmStart(std::vector<double> hyper, double scale);

    /** Drop any persisted warm-start state. */
    void clearWarmStart();

  private:
    /** Rebuild the Cholesky and α for current data + hyper-parameters. */
    void refit();

    /** Recompute y_mean_ / y_scale_ / ys_std_ from y_raw_. */
    void updateStandardization();

    /** Rebuild the pairwise squared-difference cache from x_. */
    void rebuildDistanceCache();

    /** Extend the cache with the pairs (x, x_[j]) for all current j. */
    void appendDistanceCache(const linalg::Vector& x);

    /** Per-dimension 1/ℓ_d² under the current kernel parameters. */
    std::vector<double> inverseSquaredLengthscales() const;

    /**
     * The @p m sample indices (ascending) the subset probe tier ranks
     * hyper-vectors on: one seed-stable pick per score stratum.
     */
    std::vector<size_t> probeSubsetIndices(size_t m) const;

    /** Scaled distance of cached pair @p pair given 1/ℓ². */
    double cachedScaledDistance(size_t pair,
                                const std::vector<double>& inv_l2) const;

    /** Standardized-target helpers. */
    double standardize(double y) const;
    double destandardizeMean(double m) const;
    double destandardizeVar(double v) const;

    std::unique_ptr<Kernel> kernel_;
    double noise_variance_;

    std::vector<linalg::Vector> x_;
    std::vector<double> y_raw_;
    double y_mean_ = 0.0;
    double y_scale_ = 1.0;
    linalg::Vector ys_std_; ///< Standardized targets (cached).

    /**
     * Packed lower-triangular pair caches, ordered (i, j<i) with pair
     * index i(i-1)/2 + j. pair_sqdist_ holds Σ_d (x_i − x_j)² (the
     * isotropic fast path); pair_sqdiff_ holds the per-dimension
     * squared differences (ARD mode only — empty when isotropic).
     */
    std::vector<double> pair_sqdist_;
    std::vector<double> pair_sqdiff_;

    /**
     * Lazily-built dimension-major transpose of pair_sqdiff_ (entry
     * [k * npairs + pair]), consumed by refit()'s distance pass: the
     * per-pair accumulation there runs k-ascending across contiguous
     * columns, which is the exact summation order of
     * cachedScaledDistance — same values, but vectorizable across
     * pairs instead of chained through one pair's twelve adds.
     * Invalidated whenever the pair caches change; rebuilt on the next
     * refit() that needs it (the addSample path never does).
     */
    mutable std::vector<double> pair_sqdiff_t_;
    mutable bool sqdiff_t_valid_ = false;

    std::optional<linalg::Cholesky> chol_;
    linalg::Vector alpha_; // K⁻¹ y (standardized)

    /** Gram scratch reused across refits (hyper-fit probes). */
    linalg::Matrix gram_;

    /**
     * Cross-refit warm start: the last winning probe vector and the
     * simplex scale of the move that won it. The next subset-tier
     * search probes from here first and spends its restarts only when
     * that warm probe regresses below the current-parameter baseline.
     * Cleared when the parameter count changes (kernel swap).
     */
    std::vector<double> warm_hyper_;
    double warm_scale_ = 0.0;

    GpFitStats fit_stats_;
};

} // namespace gp
} // namespace clite

#endif // CLITE_GP_GAUSSIAN_PROCESS_H
