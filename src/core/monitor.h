/**
 * @file
 * Online monitoring and re-invocation (paper Sec. 4, "Putting it all
 * together"): after CLITE settles on a partition, "performance for
 * all jobs is periodically monitored. If the observed performance or
 * the job mix changes, CLITE can be reinvoked to determine the new
 * optimal resource partition."
 *
 * OnlineManager wraps a SimulatedServer and a CliteController into
 * that loop: each tick() is one observation window; sustained QoS
 * violations, drift of an LC job's observed load away from the level
 * the incumbent was optimized for, and job arrivals/departures all
 * trigger a re-optimization seeded with the incumbent configuration.
 *
 * The loop is fault-tolerant (all of it inert on a fault-free
 * server): windows whose telemetry is lost or stale are quarantined —
 * they advance no violation/drift streak, so a glitch cannot trigger
 * a spurious re-optimization; a watchdog verifies each window that
 * the incumbent is actually programmed, re-applies it with bounded
 * retries after a transient apply failure, and after repeated
 * failures degrades gracefully to the last known-good configuration
 * (or the equal share when none is known); a job crash holds the
 * re-optimization triggers while the job is down — no partition can
 * fix a dead process — and its restart re-captures the per-job
 * reference rates.
 *
 * Preconditions: initialize() must complete before tick(),
 * incumbent() or lastResult() is used; each of those throws
 * clite::Error (with a message naming the missing initialize() call)
 * when invoked early. notifyMixChange() may be called at any time
 * after construction; a mix change notified before the first tick()
 * is honoured by that first tick().
 */

#ifndef CLITE_CORE_MONITOR_H
#define CLITE_CORE_MONITOR_H

#include <optional>
#include <string>
#include <vector>

#include "core/clite.h"
#include "store/profile_store.h"
#include "store/warm_start.h"

namespace clite {
namespace core {

/**
 * Transient-vs-shift reoptimization policy (paper Fig. 16 asks when a
 * load change warrants re-running the search; realistic traffic makes
 * the answer "not always": a flash crowd decays before a fresh search
 * could even finish, so the incumbent should ride it out).
 */
enum class ReoptPolicy {
    /** Trigger at the configured patience (the legacy behaviour). */
    Immediate,
    /**
     * Ride short bursts on the incumbent: a violation/drift streak
     * must outlast the configured patience PLUS transient_ride_windows
     * before a re-optimization fires. A streak that reaches the
     * Immediate threshold but dies before the ride threshold counts as
     * a transient ridden (OnlineManager::transientsRidden()); one that
     * survives counts as a sustained shift (sustainedShifts()).
     */
    RideTransients,
};

/**
 * Maximum signature distance of a similar-mix warm-start prior (sum of
 * absolute load-level differences across jobs).
 */
constexpr double kWarmStartMaxDistance = 0.35;

/** Monitoring knobs. */
struct MonitorOptions
{
    /** Consecutive QoS-violating windows before re-optimizing. */
    int violation_patience = 2;
    /**
     * Relative deviation of an LC job's observed completion rate from
     * the rate its incumbent partition was optimized for that counts
     * as load drift (e.g. 0.2 = 20%).
     */
    double load_drift_threshold = 0.20;
    /** Consecutive drifting windows before re-optimizing. */
    int drift_patience = 2;
    /**
     * Watchdog: consecutive windows with a failed incumbent
     * re-programming before falling back to the last known-good
     * configuration (equal share when none is known).
     */
    int apply_fail_patience = 3;
    /** Watchdog: re-apply attempts per window on apply failure. */
    int apply_retries = 2;
    /**
     * Checkpoint to the attached store after every window and search
     * (checkpoint-on-window). The fleet turns this off and its engine
     * pulls checkpoints itself as it settles commits, so that store
     * writes happen in deterministic node order rather than from pool
     * threads.
     */
    bool auto_checkpoint = true;
    /**
     * Transient-vs-shift reoptimization policy. Riding pays off only on
     * flash crowds: in the committed BENCH_traffic.json it avoids 83%
     * of re-optimizations there for a violating-window fraction of
     * 0.044 -> 0.061, but raises that fraction from 0.072 to 0.122 on
     * the composite shape and to 0.233 on the jittered diurnal (QoS-met
     * windows 0.928 -> 0.767), whose streaks are real shifts. Hence
     * the Immediate default (docs/TRAFFIC.md).
     */
    ReoptPolicy reopt_policy = ReoptPolicy::Immediate;
    /**
     * Hysteresis of RideTransients: extra consecutive windows (beyond
     * the violation/drift patience) a streak must persist before it is
     * treated as a sustained shift and re-optimized. Ignored under
     * Immediate.
     */
    int transient_ride_windows = 3;
};

/**
 * One monitoring window's percentile-over-time QoS record: the worst
 * LC tail ratios of the window, not just the run's means — the time
 * series violating-window fractions are computed from.
 */
struct WindowQos
{
    /** max over LC jobs of observed p95 / target (0 when no LC). */
    double worst_p95_ratio = 0.0;
    /** max over LC jobs of observed p99 / target (0 when no LC). */
    double worst_p99_ratio = 0.0;
    /** Some LC job missed its p95 target this window. */
    bool violated = false;
    /** Quarantined window: the ratios describe a fault, not the
     *  partition; excluded from violatingWindowFraction(). */
    bool faulted = false;
};

/**
 * The steady-state controller loop.
 */
class OnlineManager
{
  public:
    /**
     * @param server The co-location server (not owned; must outlive).
     * @param clite_options Options for the wrapped CLITE controller.
     * @param options Monitoring knobs.
     * @param store Optional warm-start profile store (not owned; must
     *     outlive). With a store attached, initialize() restores prior
     *     knowledge of the mix (exact signature hit, else the nearest
     *     similar mix within kWarmStartMaxDistance) and the manager
     *     checkpoints its learned state back — which is also the
     *     crash-recovery path: a controller rebuilt on the same
     *     server with the same store resumes from the last
     *     checkpoint instead of re-learning from scratch.
     */
    OnlineManager(platform::SimulatedServer& server,
                  CliteOptions clite_options = {},
                  MonitorOptions options = {},
                  store::ProfileStore* store = nullptr);

    /**
     * Run the initial optimization. Must be called before tick().
     * When the search yields no usable configuration (possible under
     * heavy faults), the manager falls back to the equal-share
     * partition as its incumbent instead of failing.
     * @return The search result (also retained internally).
     */
    const ControllerResult& initialize();

    /** Outcome of one monitoring window. */
    struct Tick
    {
        bool all_qos_met = false;   ///< QoS state of this window.
        /**
         * Eq. 3 score of this window. Its LC perf terms divide by the
         * isolation baselines of the last search, so after a load
         * change they read against the old load until the next search.
         */
        double score = 0.0;
        bool reoptimized = false;   ///< A re-optimization ran.
        std::string reason;         ///< Why ("qos-violation", ...).
        int search_samples = 0;     ///< Samples spent if reoptimized.
        /**
         * The window's telemetry was quarantined (lost/stale
         * measurement or a crashed job): its QoS/score describe the
         * fault, not the partition, and no streak advanced.
         */
        bool faulted = false;
        /** The watchdog fell back to a degraded configuration. */
        bool fallback = false;
        /**
         * The window was cancelled mid-measurement by the budget
         * layer's early-abort: the partial tail already proved a
         * clear QoS violation, so the violation streak advanced
         * without paying for the rest of the window. The score/QoS
         * fields describe the partial reading; the checkpointed
         * incumbent QoS state keeps its pre-abort value (a partial
         * window must not poison the snapshot).
         */
        bool aborted = false;
    };

    /**
     * One observation window plus the re-invocation decision.
     * @pre initialize() has been called.
     * @throws clite::Error when called before initialize().
     */
    Tick tick();

    /**
     * Tell the manager the job mix changed (after calling the
     * server's addJob/removeJob): the next tick() re-optimizes. When
     * the change is a single appended job (the addJob contract), the
     * search is seeded with the incumbent adapted to the new shape
     * (Allocation::withJobAdded) so adaptation starts warm; any other
     * shape change falls back to a from-scratch search. Valid at any
     * time, including before the first tick().
     */
    void notifyMixChange();

    /**
     * notifyMixChange() carrying the removed job's former server
     * index: the next tick()'s search is seeded with the incumbent
     * minus that job's row (Allocation::withJobRemoved) — the warm
     * start for the departure/eviction half of cluster rescheduling.
     *
     * @param server_index The index the job had before removeJob().
     */
    void notifyJobRemoved(size_t server_index);

    /**
     * The incumbent configuration (the degraded fallback when the
     * watchdog demoted a failing incumbent).
     * @pre initialize() has been called.
     * @throws clite::Error when called before initialize().
     */
    const platform::Allocation& incumbent() const;

    /** Number of re-optimizations triggered so far (excl. initial). */
    int reoptimizations() const { return reoptimizations_; }

    /** Number of monitoring windows observed so far. */
    int windows() const { return windows_; }

    /** Number of watchdog fallbacks to a degraded configuration. */
    int fallbacks() const { return fallbacks_; }

    /** Number of quarantined (faulted) windows so far. */
    int faultedWindows() const { return faulted_windows_; }

    /** Number of monitoring windows early-aborted so far. */
    int abortedWindows() const { return aborted_windows_; }

    /** Cumulative GP hyper-refits across all searches run so far. */
    uint64_t refits() const { return refits_; }

    /** Cumulative hyper-probe objective evaluations so far. */
    uint64_t probeEvals() const { return probe_evals_; }

    /**
     * Always 0: no hyper-fit probe starts from a warm simplex. Kept
     * because bench/e2e/workloads.cpp still reads it.
     */
    uint64_t warmProbeHits() const { return 0; }

    /** Cumulative windows measured in coarse (event-budgeted) mode. */
    uint64_t coarseWindows() const { return coarse_windows_; }

    /** Current consecutive QoS-violating window count (for tests). */
    int violationStreak() const { return violation_streak_; }

    /** Current consecutive drifting window count (for tests). */
    int driftStreak() const { return drift_streak_; }

    /** Per-window percentile-over-time QoS records, oldest first. */
    const std::vector<WindowQos>& qosTimeline() const
    {
        return qos_timeline_;
    }

    /** Non-faulted windows with a QoS verdict (the denominator of
     *  violatingWindowFraction()). */
    int qosWindows() const { return clean_windows_; }

    /** Non-faulted windows where some LC job missed its p95 target. */
    int violatingWindows() const { return violating_windows_; }

    /**
     * Fraction of non-faulted monitoring windows that violated QoS
     * (0 when none have been observed) — the percentile-over-time QoS
     * metric the traffic benchmarks gate on.
     */
    double violatingWindowFraction() const
    {
        return clean_windows_ > 0
                   ? double(violating_windows_) / double(clean_windows_)
                   : 0.0;
    }

    /** Streaks that reached the Immediate threshold but decayed before
     *  the RideTransients threshold (re-optimizations avoided). */
    int transientsRidden() const { return transients_ridden_; }

    /** Violation/drift re-optimizations that fired under
     *  RideTransients (the streak outlasted the ride window). */
    int sustainedShifts() const { return sustained_shifts_; }

    /**
     * The result of the most recent search.
     * @pre initialize() has been called.
     * @throws clite::Error when called before initialize().
     */
    const ControllerResult& lastResult() const;

    /**
     * Where the initial search's seed came from: "cold" (no store or
     * no usable prior), "exact" (same-mix snapshot), or "similar"
     * (nearest-mix snapshot within the distance bound).
     */
    const char* warmSource() const { return warm_source_; }

    /**
     * Snapshot of the current learned state (the checkpoint the
     * manager would write). Exposed so the fleet engine can collect
     * checkpoints on its own thread in deterministic node order.
     * @pre initialize() has been called.
     */
    store::Snapshot makeCheckpoint() const;

    /** The attached profile store (nullptr when none). */
    store::ProfileStore* profileStore() const { return store_; }

    /**
     * Do the store lookup of the next search now, on the calling
     * thread, and keep its result for that search. initialize() and a
     * mix-change tick() seed from the store; a caller that runs them
     * on another thread while it writes the store itself (the async
     * fleet engine) resolves the read here first, at a point of its
     * choosing. Without a prefetch the search looks the store up
     * itself; a mix change notified after the prefetch discards it.
     * No-op without a store or when the next step runs no
     * store-seeded search.
     */
    void prefetchWarmStart();

  private:
    /** put(makeCheckpoint()) when a store is attached (auto mode). */
    void checkpoint();

    /**
     * Look up the store for the server's current mix and build a
     * WarmStart (empty when nothing usable is stored).
     */
    WarmStart lookupWarmStart();

    /** The prefetched lookup (consumed) if any, else a fresh one. */
    WarmStart takeWarmStart();
    /** Record the per-LC-job reference rates of the incumbent. */
    void captureReference();

    /** Run a re-optimization and reset monitor state. */
    void reoptimize(const std::string& reason, bool mix_changed);

    /** Fold last_result_'s refit/coarse counters into the totals. */
    void accumulateSearchStats();

    /** Append this window's WindowQos record to the timeline. */
    void recordWindowQos(const std::vector<platform::JobObservation>& obs,
                         bool faulted);

    /** Violation threshold in effect (patience + ride hysteresis). */
    int effectiveViolationPatience() const;

    /** Drift threshold in effect (patience + ride hysteresis). */
    int effectiveDriftPatience() const;

    /** Adopt @p result's winner (or a fallback) as the incumbent. */
    void adoptResult();

    /**
     * Watchdog: verify the incumbent is programmed; re-apply with
     * bounded retries; degrade to last known-good / equal share after
     * apply_fail_patience consecutive failing windows.
     * @return True when the incumbent is verified programmed (only
     *     such windows may record a last known-good configuration).
     */
    bool watchdog(Tick& out);

    platform::SimulatedServer& server_;
    CliteController clite_;
    MonitorOptions options_;
    store::ProfileStore* store_ = nullptr;
    const char* warm_source_ = "cold";
    std::optional<WarmStart> prefetched_warm_;
    bool last_window_qos_met_ = false;

    std::optional<ControllerResult> last_result_;
    std::optional<platform::Allocation> incumbent_;
    std::optional<platform::Allocation> last_known_good_;
    std::vector<double> reference_rate_; // per-job completions/s (LC)
    std::vector<char> job_down_;         // crash state per job
    int violation_streak_ = 0;
    int drift_streak_ = 0;
    /** RideTransients: the streak passed the Immediate threshold and
     *  is being ridden; resolves to a transient or a sustained shift. */
    bool violation_riding_ = false;
    bool drift_riding_ = false;
    int apply_fail_streak_ = 0;
    bool mix_changed_ = false;
    std::optional<size_t> removed_job_; ///< Index removed since last tick.
    int reoptimizations_ = 0;
    int windows_ = 0;
    int fallbacks_ = 0;
    int faulted_windows_ = 0;
    int aborted_windows_ = 0;
    uint64_t refits_ = 0;
    uint64_t probe_evals_ = 0;
    uint64_t coarse_windows_ = 0;
    std::vector<WindowQos> qos_timeline_;
    int clean_windows_ = 0;     ///< Non-faulted windows recorded.
    int violating_windows_ = 0; ///< Non-faulted violating windows.
    int transients_ridden_ = 0;
    int sustained_shifts_ = 0;
};

} // namespace core
} // namespace clite

#endif // CLITE_CORE_MONITOR_H
