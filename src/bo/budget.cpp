#include "bo/budget.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace clite {
namespace bo {

bool
BudgetOptions::enabled() const
{
    return std::isfinite(budget_seconds) && budget_seconds > 0.0;
}

BudgetPolicy::BudgetPolicy(BudgetOptions options) : options_(options)
{
    CLITE_CHECK(options_.window_seconds > 0.0 &&
                    std::isfinite(options_.window_seconds),
                "window_seconds must be finite and > 0");
    CLITE_CHECK(options_.abort_check_fraction > 0.0 &&
                    options_.abort_check_fraction < 1.0,
                "abort_check_fraction must be in (0,1)");
    CLITE_CHECK(options_.abort_margin >= kMaxPartialOvershoot,
                "abort_margin " << options_.abort_margin
                                << " below the partial-overshoot bound "
                                << kMaxPartialOvershoot
                                << " could cancel feasible windows");
    CLITE_CHECK(options_.abort_min_fraction >= 0.0,
                "abort_min_fraction must be >= 0");
    CLITE_CHECK(options_.lookahead_min_gain >= 0.0,
                "lookahead_min_gain must be >= 0");
}

double
BudgetPolicy::budget() const
{
    return active() ? options_.budget_seconds
                    : std::numeric_limits<double>::infinity();
}

double
BudgetPolicy::remaining() const
{
    if (!active())
        return std::numeric_limits<double>::infinity();
    return std::max(0.0, options_.budget_seconds - charged_);
}

bool
BudgetPolicy::canAffordWindow() const
{
    if (!active())
        return true;
    return remaining() >= options_.window_seconds;
}

void
BudgetPolicy::charge(double seconds, bool violating)
{
    if (!(seconds > 0.0)) // NaN or non-positive: nothing to charge
        return;
    if (active())
        seconds = std::min(seconds, remaining());
    charged_ += seconds;
    if (violating)
        violating_ += seconds;
}

void
BudgetPolicy::chargeWindow(bool qos_met)
{
    charge(options_.window_seconds, !qos_met);
}

void
BudgetPolicy::chargeAborted(double fraction)
{
    if (!std::isfinite(fraction))
        fraction = 0.0;
    fraction = std::clamp(fraction, 0.0, 1.0);
    ++aborted_windows_;
    charge(fraction * options_.window_seconds, /*violating=*/true);
}

double
BudgetPolicy::expectedWindowCost(double p_violate) const
{
    const double w = options_.window_seconds;
    if (!active() || !options_.early_abort)
        return w;
    if (!std::isfinite(p_violate))
        p_violate = 0.0;
    p_violate = std::clamp(p_violate, 0.0, 1.0);
    return w * (options_.abort_check_fraction * p_violate +
                (1.0 - p_violate));
}

double
BudgetPolicy::normalize(double acquisition_value,
                        double expected_cost_seconds) const
{
    if (!active())
        return acquisition_value;
    // Floor the divisor at the cheapest possible window (an aborted
    // one) so a degenerate cost estimate cannot blow the value up.
    const double floor_cost =
        options_.abort_check_fraction * options_.window_seconds;
    if (!std::isfinite(expected_cost_seconds) ||
        expected_cost_seconds < floor_cost)
        expected_cost_seconds = floor_cost;
    return acquisition_value / expected_cost_seconds;
}

double
BudgetPolicy::costAwareAcquisition(double ei, double p_violate) const
{
    if (!active())
        return ei;
    if (!std::isfinite(p_violate))
        p_violate = 0.0;
    p_violate = std::clamp(p_violate, 0.0, 1.0);
    return normalize(ei * (1.0 - p_violate),
                     expectedWindowCost(p_violate));
}

bool
BudgetPolicy::lookaheadExhausted(double max_ei) const
{
    if (!active())
        return false;
    // An improving probe is feasible and therefore runs (and pays
    // for) a full window: the residual budget buys at most n of them.
    const double n = std::floor(remaining() / options_.window_seconds);
    if (n <= 0.0)
        return true;
    if (!std::isfinite(max_ei))
        return false; // a broken EI estimate must not end the search
    return max_ei * n < options_.lookahead_min_gain;
}

bool
BudgetPolicy::shouldAbort(const std::vector<PartialTailSample>& partial,
                          const BudgetOptions& options)
{
    if (!options.early_abort)
        return false;
    for (const PartialTailSample& s : partial) {
        if (!s.is_lc || !s.valid)
            continue;
        // Every comparison is written so NaN fails it: a poisoned
        // counter can never justify cancelling a window.
        if (!std::isfinite(s.p95_ms) || s.p95_ms <= 0.0)
            continue;
        if (!std::isfinite(s.target_ms) || s.target_ms <= 0.0)
            continue;
        if (!std::isfinite(s.fraction) ||
            s.fraction < options.abort_min_fraction)
            continue;
        if (s.p95_ms > s.target_ms * options.abort_margin)
            return true;
    }
    return false;
}

} // namespace bo
} // namespace clite
