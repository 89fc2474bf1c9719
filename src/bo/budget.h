/**
 * @file
 * Cost-aware, budget-bounded search policy (Lynceus-style).
 *
 * Every CLITE sample costs a real observation window (~2 s) at
 * degraded service, yet the EI-threshold controller treats samples as
 * free. BudgetPolicy makes the tuning *budget* first-class, in units
 * of window-seconds:
 *
 *  - **Budget accounting.** Each full observation window charges
 *    `window_seconds`; an early-aborted window charges exactly its
 *    elapsed fraction. Charges are clamped so the charged total can
 *    NEVER exceed the configured budget (property-tested invariant),
 *    and windows whose jobs violated QoS accumulate separately as
 *    QoS-violating sample-seconds — the production metric the budget
 *    sweep (bench/budget_sweep) gates on.
 *
 *  - **Cost-normalized acquisition.** Expected *useful* improvement
 *    per expected window cost. A candidate the surrogate predicts to
 *    be QoS-violating is cheap (its window aborts at
 *    `abort_check_fraction`) but nearly worthless: an aborted sample
 *    can never win the search, so the expected improvement of
 *    launching the probe is EI(x)·(1 − p_violate(x)). Dividing plain
 *    EI by the cost alone would do the opposite — actively steer
 *    probes INTO the violating region because they are cheap. The
 *    acquisition objective is therefore
 *        acq(x) = EI(x)·(1 − p_violate(x)) / E[cost(x)],
 *    E[cost] = W·(f·p_violate + (1 − p_violate)), with p_violate the
 *    surrogate's posterior mass below the mode-1/mode-2 score
 *    boundary (feasibility-weighted EI in the constrained-BO sense).
 *
 *  - **Lookahead cutoff.** Long-sighted "can any remaining probe
 *    still beat the incumbent?" test: with n = ⌊remaining/W⌋ full
 *    windows left, the optimistic total improvement n·maxEI must
 *    clear `lookahead_min_gain`, else the search terminates — the
 *    residual budget cannot pay for a probe that matters.
 *
 *  - **Mid-window early-abort predicate.** The platform's counters
 *    expose partial tail latency mid-window; a window whose partial
 *    p95 already exceeds target·abort_margin is clearly infeasible
 *    and is cancelled, charged only its elapsed cost. The predicate
 *    is deliberately conservative: a partial p95 may overshoot the
 *    final full-window value by at most kMaxPartialOvershoot (the
 *    deterministic-replay bound the fuzz suite pins), so any
 *    abort_margin ≥ that bound can never cancel a window that would
 *    have ended feasible. Non-finite or nonsensical counters (NaN,
 *    zero load, negative targets) never trigger an abort.
 *
 * The policy is INERT unless the budget is finite and positive:
 * budget_seconds ≤ 0 or ∞ reproduces the EI-threshold stopping
 * decisions bit-for-bit (property-tested across seeds), which keeps
 * every unbudgeted golden byte-identical.
 */

#ifndef CLITE_BO_BUDGET_H
#define CLITE_BO_BUDGET_H

#include <vector>

namespace clite {
namespace bo {

/**
 * Upper bound on how far a partial-window p95 may overshoot the
 * final full-window p95 (multiplicative). Partial percentiles are
 * computed from fewer queries, so they are noisier; the platform's
 * partial-window model inflates measurement noise by 1/√fraction,
 * which at the default abort_check_fraction and noise levels stays
 * within this factor with overwhelming margin. The fuzz suite feeds
 * partial values anywhere inside this bound for feasible windows and
 * asserts the predicate never aborts them.
 */
constexpr double kMaxPartialOvershoot = 1.3;

/** Budget-bounded search knobs. */
struct BudgetOptions
{
    /**
     * Total search budget in window-seconds. ≤ 0 (the default) or
     * non-finite means unlimited: the policy is inert and the search
     * reproduces the EI-threshold baseline bit-for-bit.
     */
    double budget_seconds = 0.0;
    /** Cost of one full observation window (paper: ~2 s). */
    double window_seconds = 2.0;
    /** Enable mid-window early-abort of clearly infeasible windows. */
    bool early_abort = true;
    /**
     * Fraction of the window at which partial counters are read for
     * the abort decision (and the cost an aborted window is charged).
     */
    double abort_check_fraction = 0.25;
    /**
     * A partial p95 must exceed target·abort_margin to abort. Must be
     * ≥ kMaxPartialOvershoot for the never-abort-feasible guarantee.
     */
    double abort_margin = 1.5;
    /**
     * Minimum elapsed fraction before the predicate may fire: too few
     * queries make the partial percentile meaningless.
     */
    double abort_min_fraction = 0.05;
    /**
     * Lookahead floor: terminate when (remaining windows)·maxEI drops
     * below this optimistic total improvement (score-scale units).
     */
    double lookahead_min_gain = 1e-3;

    /** True when the budget is finite and positive (policy active). */
    bool enabled() const;
};

/**
 * One job's mid-window partial tail-latency reading, decoupled from
 * the platform's JobObservation so the predicate (and its fuzz
 * harness) stay platform-independent.
 */
struct PartialTailSample
{
    double p95_ms = 0.0;     ///< Partial-window p95 (LC).
    double target_ms = 0.0;  ///< QoS target.
    bool is_lc = true;       ///< BG samples never trigger aborts.
    bool valid = true;       ///< False: counters lost, distrust.
    double fraction = 0.0;   ///< Elapsed fraction of the window.
};

/**
 * Budget accounting + stopping/normalization decisions for one
 * search. Not thread-safe; one policy per search, used from the
 * (serial) controller loop.
 */
class BudgetPolicy
{
  public:
    explicit BudgetPolicy(BudgetOptions options = {});

    /** The options in effect. */
    const BudgetOptions& options() const { return options_; }

    /** True when the budget is finite and positive. */
    bool active() const { return options_.enabled(); }

    /** The configured budget (+∞ when inactive). */
    double budget() const;

    /** Window-seconds charged so far (monotone, ≤ budget()). */
    double charged() const { return charged_; }

    /** Remaining budget (+∞ when inactive). */
    double remaining() const;

    /** Window-seconds charged while some LC job violated QoS. */
    double violatingSeconds() const { return violating_; }

    /** Full windows aborted mid-measurement so far. */
    int abortedWindows() const { return aborted_windows_; }

    /**
     * Can one more FULL window be paid for? Always true when
     * inactive. The controller must consult this before starting a
     * window; together with clamped charging it guarantees charged()
     * never exceeds budget().
     */
    bool canAffordWindow() const;

    /**
     * Charge one full observation window (clamped to the remaining
     * budget). @param qos_met The window's QoS outcome: violating
     * windows accumulate into violatingSeconds().
     */
    void chargeWindow(bool qos_met);

    /**
     * Charge an early-aborted window exactly its elapsed cost,
     * fraction·window_seconds (clamped to the remaining budget; the
     * fraction itself is clamped to [0, 1]). Aborted windows are by
     * definition QoS-violating.
     */
    void chargeAborted(double fraction);

    /**
     * Expected cost of one probe window given the surrogate's
     * violation probability at the candidate: with early-abort on,
     * W·(f·p + (1 − p)); plain W otherwise. @p p_violate is clamped
     * to [0, 1]; non-finite reads as 0 (no discount).
     */
    double expectedWindowCost(double p_violate) const;

    /**
     * Cost-normalize an acquisition value: value / expected cost in
     * window-seconds. Identity when the policy is inactive (the
     * inert-at-∞ guarantee).
     */
    double normalize(double acquisition_value,
                     double expected_cost_seconds) const;

    /**
     * The full cost-aware acquisition transform (header formula):
     * feasibility-weighted, cost-normalized EI,
     * ei·(1 − p_violate) / expectedWindowCost(p_violate). The weight
     * is what keeps the normalization from chasing cheap-but-doomed
     * probes: an aborted window can never improve the incumbent.
     * Identity when the policy is inactive; non-finite @p p_violate
     * reads as 0 (plain EI / full window).
     */
    double costAwareAcquisition(double ei, double p_violate) const;

    /**
     * Lookahead cutoff: true when no remaining probe can still
     * improve the incumbent within the residual budget — either no
     * full window is affordable, or ⌊remaining/W⌋·max_ei falls below
     * lookahead_min_gain. Always false when inactive.
     */
    bool lookaheadExhausted(double max_ei) const;

    /**
     * The mid-window early-abort predicate: true when some valid LC
     * sample's partial p95 already exceeds target·abort_margin at a
     * trustworthy elapsed fraction. Pure and total: any stream —
     * NaN/∞ counters, zero loads, empty input — returns a decision
     * without crashing, and non-finite values never justify an abort.
     */
    static bool shouldAbort(const std::vector<PartialTailSample>& partial,
                            const BudgetOptions& options);

  private:
    /** Add @p seconds, clamped so charged_ never exceeds the budget. */
    void charge(double seconds, bool violating);

    BudgetOptions options_;
    double charged_ = 0.0;
    double violating_ = 0.0;
    int aborted_windows_ = 0;
};

} // namespace bo
} // namespace clite

#endif // CLITE_BO_BUDGET_H
