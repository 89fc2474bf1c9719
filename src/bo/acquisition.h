/**
 * @file
 * Acquisition functions for Bayesian optimization.
 *
 * CLITE uses Expected Improvement augmented with an exploration factor
 * ζ (paper Eq. 2, following Lizotte): with z = (μ(x) − x̂ − ζ)/σ(x),
 *
 *   EI(x) = (μ(x) − x̂ − ζ)Φ(z) + σ(x)φ(z)   if σ(x) > 0
 *         = 0                                 if σ(x) = 0
 *
 * where x̂ is the incumbent best objective value. Probability of
 * Improvement and Upper Confidence Bound are provided for the
 * acquisition ablation (the paper discusses both as rejected
 * alternatives: PI under-explores, entropy/UCB variants cost too much
 * for CLITE's online setting).
 */

#ifndef CLITE_BO_ACQUISITION_H
#define CLITE_BO_ACQUISITION_H

#include <memory>
#include <string>

#include "gp/gaussian_process.h"

namespace clite {
namespace bo {

/**
 * Abstract acquisition function over a fitted GP surrogate. All
 * acquisitions are formulated for MAXIMIZATION of the objective.
 * Each one is a closed form over the posterior at a point — value() —
 * that the base class applies after GaussianProcess::predict (one
 * point) or predictBatch (a block of candidates).
 */
class Acquisition
{
  public:
    virtual ~Acquisition() = default;

    /**
     * Acquisition value at @p x: value() over gp.predict(x).
     *
     * @param gp Fitted surrogate.
     * @param x Query point.
     * @param incumbent Best observed objective value x̂ so far.
     */
    double evaluate(const gp::GaussianProcess& gp, const linalg::Vector& x,
                    double incumbent) const;

    /**
     * Batched acquisition: out[i] = evaluate(gp, xs[begin+i],
     * incumbent) for i < count, bit-identically (predictBatch matches
     * predict per point; the batch-vs-scalar tests pin it). One
     * predictBatch call per block amortizes the triangular solves into
     * a single blocked TRSM.
     */
    void evaluateBatch(const gp::GaussianProcess& gp,
                       const std::vector<linalg::Vector>& xs, size_t begin,
                       size_t count, double incumbent, double* out) const;

    /**
     * The closed form: acquisition value of a point whose posterior
     * has @p mean and @p variance (clamped at 0), against the
     * incumbent x̂.
     */
    virtual double value(double mean, double variance,
                         double incumbent) const = 0;

    /** Name for configuration/reporting. */
    virtual std::string name() const = 0;
};

/**
 * Candidates per batched-engine block. 64 keeps the working panel of a
 * 256-sample GP (~128 KiB) L2-resident while still amortizing the
 * factor traffic, and gives the pool enough blocks to balance at the
 * usual 512-candidate rounds.
 */
constexpr size_t kAcquisitionBlock = 64;

/**
 * Score every candidate of a round: out[i] = acq.evaluate(gp, xs[i],
 * incumbent), computed block-wise through evaluateBatch and fanned out
 * over the global pool one *block* (not one candidate) per task.
 *
 * Granularity fallback: when the round is too small to amortize pool
 * dispatch — fewer candidates than 2× the pool's thread count, or a
 * single-threaded pool — the blocks run inline on the caller, which
 * benchmarked strictly faster at the n=16/64 round sizes where
 * per-candidate fan-out used to be a wash. Results are bit-identical
 * on every path (each block writes only its own output slots).
 *
 * @param out Result array of xs.size() entries.
 * @param block Block size (candidates per task); 0 means
 *     kAcquisitionBlock.
 */
void scoreCandidates(const Acquisition& acq, const gp::GaussianProcess& gp,
                     const std::vector<linalg::Vector>& xs,
                     double incumbent, double* out, size_t block = 0);

/**
 * Expected Improvement with exploration factor ζ (paper Eq. 2).
 */
class ExpectedImprovement : public Acquisition
{
  public:
    /**
     * @param zeta Exploration bonus; the paper reports ζ ≈ 0.01 works
     *     well in practice.
     */
    explicit ExpectedImprovement(double zeta = 0.01);

    double value(double mean, double variance,
                 double incumbent) const override;
    std::string name() const override { return "ei"; }

    /** The exploration factor ζ. */
    double zeta() const { return zeta_; }

  private:
    double zeta_;
};

/**
 * Probability of Improvement: Φ((μ − x̂ − ζ)/σ).
 */
class ProbabilityOfImprovement : public Acquisition
{
  public:
    explicit ProbabilityOfImprovement(double zeta = 0.01);

    double value(double mean, double variance,
                 double incumbent) const override;
    std::string name() const override { return "pi"; }

  private:
    double zeta_;
};

/**
 * GP Upper Confidence Bound: μ + κσ.
 */
class UpperConfidenceBound : public Acquisition
{
  public:
    explicit UpperConfidenceBound(double kappa = 2.0);

    double value(double mean, double variance,
                 double incumbent) const override;
    std::string name() const override { return "ucb"; }

  private:
    double kappa_;
};

/**
 * Factory by name ("ei" | "pi" | "ucb").
 * @throws clite::Error for an unknown name.
 */
std::unique_ptr<Acquisition> makeAcquisition(const std::string& name,
                                             double param = 0.01);

} // namespace bo
} // namespace clite

#endif // CLITE_BO_ACQUISITION_H
