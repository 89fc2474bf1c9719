/**
 * @file
 * The CLITE controller (paper Sec. 3–4, Fig. 5).
 *
 * Bayesian-optimization search over resource-partition configurations:
 *
 *  1. Bootstrap with the informed sample set: the equal division of
 *     every resource plus, for each job, the "maximum allocation"
 *     extremum. The extrema double as an infeasibility test — an LC
 *     job that misses QoS with everything cannot be co-located and is
 *     reported for rescheduling without wasting BO cycles.
 *  2. Iterate: fit a Gaussian-process surrogate (Matérn kernel) to the
 *     (configuration, Eq. 3 score) samples; maximize Expected
 *     Improvement with ζ-exploration over the constrained space of
 *     Eq. 4–6 (projected-gradient multi-start on the continuous
 *     relaxation, then sum-preserving integer rounding); apply
 *     dropout-copy dimensionality reduction (hold the best-performing
 *     job's allocation at its best-seen value, optimize the rest);
 *     evaluate the chosen configuration for one observation window.
 *  3. Terminate when the expected improvement drops below a threshold
 *     scaled by the number of co-located jobs, or at the iteration cap.
 *
 * The controller then leaves the server programmed with the best
 * configuration seen. reoptimize() supports the Fig. 16 dynamic
 * scenario: on a load change, rerun the search seeded with the
 * incumbent.
 */

#ifndef CLITE_CORE_CLITE_H
#define CLITE_CORE_CLITE_H

#include <optional>
#include <string>
#include <vector>

#include "bo/budget.h"
#include "common/rng.h"
#include "core/controller.h"

namespace clite {
namespace core {

/** CLITE tuning knobs (paper defaults). */
struct CliteOptions
{
    /** EI exploration factor ζ (Eq. 2); ~0.01 works well (Lizotte). */
    double ei_zeta = 0.01;
    /**
     * Base EI termination threshold (~1% of the score scale); scaled
     * by the number of co-located jobs internally.
     */
    double termination_threshold = 0.01;
    /** Hard cap on BO iterations after bootstrapping (N_iter). */
    int max_iterations = 40;
    /**
     * Minimum BO iterations before the EI-drop termination applies —
     * the termination watches the *drop* of the EI curve, which needs
     * history; a cold surrogate can under-estimate EI at iteration 0.
     */
    int min_iterations = 6;
    /** Enable dropout-copy dimensionality reduction. */
    bool dropout = true;
    /**
     * Probability of dropping a random job instead of the best
     * performer (the "small probabilistic factor" behind CLITE's
     * residual run-to-run variability, Fig. 11).
     */
    double dropout_random_prob = 0.15;
    /** Use the informed bootstrap set (false: random, for ablation). */
    bool informed_bootstrap = true;
    /** Multi-start count for the acquisition maximization. */
    int acquisition_starts = 8;
    /** Surrogate kernel name ("matern52" | "matern32" | "rbf"). */
    std::string kernel = "matern52";
    /**
     * Use per-dimension (ARD) length-scales; off by default because
     * ARD overfits in CLITE's few-samples-per-dimension regime.
     */
    bool ard = false;
    /** Consecutive below-threshold EI iterations required to stop. */
    int termination_patience = 2;
    /**
     * Surrogate-guided local refinement after the EI termination:
     * each step evaluates the single-unit resource transfer around the
     * incumbent that the GP posterior mean ranks highest. This is the
     * "keeps reshuffling resources to improve every job's performance"
     * behaviour of Fig. 15b, where the score optimum sits on the QoS
     * feasibility boundary that EI's risk-aversion avoids.
     */
    int polish_iterations = 10;
    /**
     * Extra observation windows spent re-measuring each of the top
     * candidate configurations before committing (the counterpart of
     * the paper's "observation period ... ensures CLITE has
     * sufficient queries to calculate QoS violations with high
     * statistical significance"): measurement noise at the QoS
     * boundary can otherwise promote a configuration that truly
     * misses its targets.
     */
    int validation_windows = 2;
    /** Acquisition name ("ei" | "pi" | "ucb") for ablations. */
    std::string acquisition = "ei";
    /** RNG seed for all stochastic choices. */
    uint64_t seed = 7;
    /**
     * Fault tolerance. Only active when the server has fault
     * injection enabled — on a fault-free server the search is
     * bit-identical with the flag on or off. When active: transient
     * apply failures are retried with bounded exponential back-off,
     * samples measured during fault windows are quarantined (kept in
     * the trace but never fed to the GP or eligible as the winner),
     * validation aggregates with median score / majority QoS vote to
     * reject latency-spike outliers, and a permanently dead resource
     * knob collapses that search dimension instead of aborting.
     */
    bool resilient = true;
    /**
     * Extra apply attempts per sample on transient failure, backing
     * off kRetryBackoffMs · 2^attempt (modeled).
     */
    int apply_retries = 3;
    /**
     * Cost-aware, budget-bounded search (bo/budget.h). With the
     * default unlimited budget the policy is inert and the search is
     * bit-identical to the EI-threshold baseline; a finite positive
     * budget_seconds enables budget accounting, cost-normalized
     * acquisition, the lookahead cutoff, and mid-window early-abort
     * of clearly infeasible probe windows.
     */
    bo::BudgetOptions budget;
    /**
     * DES event budget applied to SEARCH probe windows (coarse mode,
     * docs/MODEL.md): bootstrap sweeps, BO iterations and polish
     * moves measure under min(window, budget/λ) spans, cutting the
     * simulated-event bill at fleet scale. Validation windows — and
     * every window observed outside the search, i.e. the monitoring
     * ticks checkpoints are built from — always run fine-mode: the
     * budget is restored to 0 before validation and on every search
     * exit path. 0 (the default) leaves everything fine-mode; models
     * without an event budget (the analytic backend) ignore it.
     */
    uint64_t search_event_budget = 0;
};

/**
 * Prior knowledge about a job mix, extracted from the warm-start
 * profile store (store/warm_start.h), that seeds the bootstrap with
 * evaluated configurations from an earlier run of the same (or a
 * similar) mix instead of cold equal-division-only starts.
 */
struct WarmStart
{
    /**
     * Prior evaluated configurations, best first; each is re-measured
     * fresh during bootstrap (prior SCORES are never trusted — loads,
     * noise seeds and co-runners may differ; only the locations carry
     * over).
     */
    std::vector<platform::Allocation> configs;
    /** The prior run's incumbent, tried before everything else. */
    std::optional<platform::Allocation> incumbent;
    /**
     * The prior run of this EXACT mix converged with all QoS met: the
     * per-job maximum-allocation extrema (whose only purpose is the
     * infeasibility test) are skipped, saving one bootstrap window
     * per job. Never set for similar-mix (load-drifted) priors.
     */
    bool trusted_feasible = false;

    /** True when there is nothing to seed with. */
    bool empty() const
    {
        return configs.empty() && !incumbent.has_value();
    }
};

/**
 * The CLITE policy.
 */
class CliteController : public Controller
{
  public:
    explicit CliteController(CliteOptions options = {});

    std::string name() const override { return "clite"; }

    ControllerResult run(platform::SimulatedServer& server) override;

    /**
     * run() seeded with prior-mix knowledge. With an empty WarmStart
     * this is bit-identical to run().
     */
    ControllerResult runWarm(platform::SimulatedServer& server,
                             const WarmStart& warm);

    /**
     * Re-invoke the search after a load or mix change (Fig. 16),
     * seeding the bootstrap with @p incumbent so adaptation starts
     * from the previously best configuration.
     */
    ControllerResult reoptimize(platform::SimulatedServer& server,
                                const platform::Allocation& incumbent);

    /**
     * reoptimize() additionally seeded with prior-mix knowledge (the
     * cluster path: an evicted job's destination node warm-starts
     * from what the fleet store knows about its new mix). With an
     * empty WarmStart this is bit-identical to reoptimize().
     */
    ControllerResult reoptimizeWarm(platform::SimulatedServer& server,
                                    const platform::Allocation& incumbent,
                                    const WarmStart& warm);

    /** The options in effect. */
    const CliteOptions& options() const { return options_; }

  private:
    /**
     * The search behind every entry point. @p incumbent is taken by
     * value: callers may pass the server's own currentAllocation(),
     * which the first apply() replaces.
     */
    ControllerResult search(platform::SimulatedServer& server,
                            std::optional<platform::Allocation> incumbent,
                            const WarmStart* warm = nullptr);

    CliteOptions options_;
};

} // namespace core
} // namespace clite

#endif // CLITE_CORE_CLITE_H
