/**
 * @file
 * Adaptive hyper-refit cadence for the BO loop.
 *
 * Hyper-parameter refits are the most expensive per-iteration step at
 * large history (docs/PERF.md §5/§7): even through the subset probe
 * tier the winning vector is re-applied through one exact O(n³)
 * refit. They are also progressively less necessary — after a hundred
 * samples one more observation barely moves the marginal-likelihood
 * surface. The cadence therefore stretches with history: refit every
 *
 *     k(n) = base · min(4, 1 + n / stretch_threshold)
 *
 * iterations, where base is the controller's fixed refit period
 * (kGpFitEvery in core/clite.cpp). Below the stretch threshold
 * k(n) == base, i.e. exactly the fixed cadence the controller always
 * had — small-history traces (every golden) are untouched.
 *
 * A *surprise* — an observation falling outside the surrogate's own
 * confidence band — means the current hyper-parameters misdescribe
 * the surface, so it forces the next refit early; never earlier than
 * base iterations after the previous one, which bounds the refit rate
 * from above by the original cadence.
 *
 * Contracts pinned by tests/core/cadence_test.cpp: the gap between
 * refits never exceeds k(n); a surprise forces a refit once at least
 * base iterations have passed; below the threshold the schedule is
 * bit-for-bit the historical iter % base == 0 one.
 */

#ifndef CLITE_CORE_CADENCE_H
#define CLITE_CORE_CADENCE_H

#include <algorithm>
#include <cstddef>

namespace clite {
namespace core {

class RefitCadence
{
  public:
    /**
     * @param base Refit period at small history (>= 1 enforced).
     * @param stretch_threshold History size where stretching starts;
     *        0 disables stretching entirely.
     */
    explicit RefitCadence(int base, size_t stretch_threshold = 96)
        : base_(base < 1 ? 1 : base), threshold_(stretch_threshold)
    {
    }

    /** k(n): the refit period at history size @p history. */
    int period(size_t history) const
    {
        if (threshold_ == 0 || history < threshold_)
            return base_;
        const int growth = 1 + int(history / threshold_);
        return base_ * std::min(4, growth);
    }

    /**
     * Advance one search iteration at history size @p history; true
     * means refit now. The first call always fires (the historical
     * schedule refit at iteration 0).
     */
    bool step(size_t history, bool surprise)
    {
        const bool due =
            since_ >= period(history) || (surprise && since_ >= base_);
        if (due) {
            since_ = 1;
            return true;
        }
        ++since_;
        return false;
    }

    /** Iterations since the last refit (counting the current one). */
    int sinceRefit() const { return since_; }

  private:
    int base_;
    size_t threshold_;
    int since_ = 1 << 20; ///< Saturated so the first step() refits.
};

} // namespace core
} // namespace clite

#endif // CLITE_CORE_CADENCE_H
