/**
 * @file
 * The simulated co-location server.
 *
 * SimulatedServer is the substitute for the paper's Xeon testbed: it
 * owns a set of co-located jobs, programs resource partitions through
 * the Table-1 isolation drivers, and "runs" the system for an
 * observation window by querying a performance model, adding
 * multiplicative measurement noise. Controllers (CLITE and every
 * baseline) interact with it only through apply()/observe()/evaluate(),
 * exactly the black-box interface the paper's controllers have to the
 * real machine. Sample and reprogram counters feed the overhead
 * analysis of Fig. 15.
 */

#ifndef CLITE_PLATFORM_SERVER_H
#define CLITE_PLATFORM_SERVER_H

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "platform/allocation.h"
#include "platform/faults.h"
#include "platform/isolation.h"
#include "platform/resource.h"
#include "workloads/perf_model.h"
#include "workloads/profile.h"

namespace clite {
namespace platform {

/**
 * One job's measured behaviour during an observation window, plus the
 * isolation baselines needed to normalize it (the paper's Iso-Perf,
 * sampled during initialization).
 */
struct JobObservation
{
    std::string job_name;     ///< Workload name.
    bool is_lc = false;       ///< Latency-critical?
    double load_fraction = 0; ///< Offered load (LC).

    double p95_ms = 0.0;      ///< Measured p95 tail latency (LC).
    double p99_ms = 0.0;      ///< Measured p99 tail latency (LC).
    double qos_target_ms = 0; ///< QoS target (LC).
    double throughput = 0.0;  ///< Measured throughput.

    double iso_p95_ms = 0.0;     ///< Measured isolated p95 (LC).
    double iso_throughput = 0.0; ///< Measured isolated throughput (BG).

    /**
     * False when the window's telemetry was lost (measurement
     * dropout): the numeric fields are meaningless and the sample must
     * not be trusted. Detectable online — the monitoring agent knows
     * it received no data.
     */
    bool valid = true;
    /**
     * True when the telemetry repeats the previous window (frozen
     * counters). Detectable online through the sample's unchanged
     * timestamp.
     */
    bool stale = false;
    /**
     * True while the job is crashed (down): zero throughput, p95 far
     * beyond any target. Detectable online — the process is gone.
     */
    bool crashed = false;
    /**
     * Elapsed fraction of the observation window this reading covers.
     * 1 for a full window (observe()); < 1 for a mid-window peek at
     * the partial counters (observePartialWindow()), whose percentiles
     * are computed from proportionally fewer queries and are noisier.
     */
    double window_fraction = 1.0;

    /** True when the job is BG or its p95 is within target. */
    bool qosMet() const;

    /**
     * Normalized performance in (0, 1]: BG throughput / isolated
     * throughput; for LC jobs iso_p95 / p95 (capped at 1) — the
     * Colo-Perf/Iso-Perf ratio of Eq. 3.
     */
    double perfNorm() const;

    /** QoS headroom target/p95 (LC; > 1 means met). */
    double qosRatio() const;
};

/**
 * The simulated server hosting a fixed set of co-located jobs.
 */
class SimulatedServer
{
  public:
    /**
     * @param config Hardware description.
     * @param jobs Co-located jobs (>= 1, and at most
     *     min_r units(r) so each can own a unit of everything).
     * @param model Performance model backend (owned).
     * @param seed Seed for measurement noise (and DES randomness).
     * @param noise_sigma Log-normal sigma of measurement noise
     *     (0 disables noise).
     */
    SimulatedServer(ServerConfig config, std::vector<workloads::JobSpec> jobs,
                    std::unique_ptr<workloads::PerformanceModel> model,
                    uint64_t seed = 1, double noise_sigma = 0.03);

    /** Hardware description. */
    const ServerConfig& config() const { return config_; }

    /** Number of co-located jobs. */
    size_t jobCount() const { return jobs_.size(); }

    /** Job @p j's spec. */
    const workloads::JobSpec& job(size_t j) const;

    /** Indices of the latency-critical jobs. */
    std::vector<size_t> lcJobs() const;

    /** Indices of the background jobs. */
    std::vector<size_t> bgJobs() const;

    /**
     * Program @p alloc through the isolation drivers.
     *
     * Under fault injection an apply attempt can transiently fail
     * (drivers and currentAllocation() keep their previous state;
     * lastApplyOk() turns false) and dead knobs keep their last
     * programmed column, so currentAllocation() reflects what is
     * actually programmed, not what was requested.
     *
     * @pre alloc.valid() with matching shape.
     */
    void apply(const Allocation& alloc);

    /**
     * Attach (or detach, with nullptr) a fault injector. Without one —
     * or with a plan that injects nothing — every code path is
     * identical to the fault-free server.
     */
    void setFaultInjector(std::shared_ptr<FaultInjector> faults);

    /** The attached fault injector (nullptr when none). */
    FaultInjector* faultInjector() const { return faults_.get(); }

    /** True when an injector with a non-trivial plan is attached. */
    bool faultsEnabled() const
    {
        return faults_ != nullptr && faults_->plan().any();
    }

    /**
     * Did the most recent apply() program the drivers? Mirrors the
     * error code a real isolation tool returns, so controllers can
     * retry. Always true on a fault-free server.
     */
    bool lastApplyOk() const { return last_apply_ok_; }

    /**
     * Resources whose knob is permanently dead at the current apply
     * index (empty on a fault-free server). A dead knob keeps its
     * last programmed partition; controllers should collapse the
     * dimension.
     */
    std::vector<size_t> deadResources() const;

    /** The currently programmed allocation. */
    const Allocation& currentAllocation() const;

    /**
     * Observe every job for one observation window under the current
     * allocation (applies measurement noise).
     */
    std::vector<JobObservation> observe();

    /**
     * Peek at the partial counters @p fraction of the way into the
     * CURRENT observation window — the real platform's perf counters
     * expose tail latency continuously, so a controller can decide
     * mid-window whether the window is worth finishing (the budget
     * layer's early-abort, bo/budget.h).
     *
     * The peek is side-effect-free with respect to the full-window
     * streams: it advances neither observe_count_ nor the noise/model
     * RNGs (its randomness derives from a hash of the window index
     * and allocation), so a run that never aborts is bit-identical to
     * one that never peeked. Partial percentiles come from
     * proportionally fewer queries, so measurement noise is inflated
     * by 1/sqrt(fraction); each returned observation carries
     * window_fraction = fraction. Under fault injection a window
     * whose telemetry is dropped reports valid = false (read-only:
     * no fault is recorded against the window).
     *
     * @param fraction Elapsed fraction of the window, in (0, 1].
     */
    std::vector<JobObservation> observePartialWindow(double fraction);

    /** Number of mid-window partial peeks so far. */
    uint64_t partialObserveCount() const { return partial_observe_count_; }

    /** apply() followed by observe(). */
    std::vector<JobObservation> evaluate(const Allocation& alloc);

    /**
     * Ground truth of @p alloc, every job's reference(): programs no
     * partition, advances no counter and draws from no stream. This is
     * the "offline" oracle view of a configuration (and the harness's
     * and fleet's ground-truth reporter); online controllers must use
     * evaluate() instead.
     */
    std::vector<JobObservation> observeNoiseless(
        const Allocation& alloc) const;

    /**
     * Job @p j's noise-free reference under @p units (one per
     * resource): the stationary closed form, on every backend
     * (workloads::closedFormMeasure()), normalized by the job's last
     * measured isolationBaseline(), which a load change since the last
     * search has not refreshed.
     */
    JobObservation reference(size_t j, const std::vector<int>& units) const;

    /**
     * Change job @p j's offered load (Fig. 16 dynamic scenario).
     * Measures nothing: the job's isolation baseline keeps its last
     * sample until sampleIsolationBaselines() runs at the next search.
     */
    void setLoad(size_t j, double load_fraction);

    /**
     * Co-locate an additional job (Sec. 4: "if ... the job mix
     * changes, CLITE can be reinvoked"). The current partition is
     * re-programmed to the equal share of the new job count; the
     * caller is expected to re-run its controller.
     *
     * @return The new job's index.
     * @throws clite::Error when some resource cannot give every job a
     *     unit any more.
     */
    size_t addJob(const workloads::JobSpec& job);

    /**
     * Remove job @p j from the co-location; remaining jobs keep their
     * relative order. The current partition is re-programmed to the
     * equal share of the remaining jobs.
     */
    void removeJob(size_t j);

    /** The per-job programmed isolation settings (driver state). */
    std::vector<std::string> isolationSettings(size_t j) const;

    /** Number of apply() calls so far (Fig. 15 overhead). */
    uint64_t applyCount() const { return apply_count_; }

    /** Number of observe() windows so far. */
    uint64_t observeCount() const { return observe_count_; }

    /** Total modeled reprogramming latency spent in apply() (ms). */
    double totalApplyLatencyMs() const { return apply_latency_ms_; }

    /** Model backend name. */
    std::string modelName() const { return model_->name(); }

    /**
     * Switch the backing model between coarse (event-budgeted) and
     * fine measurement mode (docs/MODEL.md). Returns true when the
     * model honors budgets (the DES backend); the analytic backend
     * refuses and stays exact. The controller sets a budget around
     * its search probes and restores 0 before validation, so
     * monitoring windows and checkpoints always measure fine.
     */
    bool setMeasurementEventBudget(uint64_t budget)
    {
        return model_->setEventBudget(budget);
    }

    /** The model's active measurement event budget (0 = fine). */
    uint64_t measurementEventBudget() const
    {
        return model_->eventBudget();
    }

    /**
     * Measured isolated baseline of job @p j (one fine, noise-free
     * model window at its max-allocation extremum, fixed seed): p95
     * for LC, throughput for BG. Sampled at first use; after that only
     * sampleIsolationBaselines() measures it again.
     */
    workloads::JobMeasurement isolationBaseline(size_t j) const;

    /**
     * Sample the isolation baseline of every job not yet sampled or
     * whose offered load moved since its last sample. CliteController
     * calls it when a search starts: a real node measures Iso-Perf
     * when it initializes, not while its jobs run co-located, so
     * between searches observe() and reference() divide by the last
     * sample.
     */
    void sampleIsolationBaselines();

  private:
    /** One job's isolation baseline sample (the paper's Iso-Perf). */
    struct IsoSample
    {
        bool sampled = false;
        double load = 0.0;  ///< The job's offered load when sampled.
        double value = 0.0; ///< p95 (LC) or throughput (BG).
    };

    /** Measure job @p j's baseline at its current load into iso_[j]. */
    void measureIsolationBaseline(size_t j) const;

    /** Job @p j's observation of @p m under noise multiplier @p noise. */
    JobObservation observation(size_t j, const workloads::JobMeasurement& m,
                               double noise) const;

    /** Every job under the programmed allocation: per job, one model
     *  draw from @p model_rng, then noise of @p sigma from @p noise_rng. */
    std::vector<JobObservation> measureWindow(Rng& model_rng,
                                              Rng& noise_rng,
                                              double sigma) const;

    /**
     * Program @p alloc unconditionally, bypassing fault injection —
     * construction and job arrival/departure reconfigure the slots as
     * an offline operation that cannot be left half-done.
     */
    void applyInternal(const Allocation& alloc);

    ServerConfig config_;
    std::vector<workloads::JobSpec> jobs_;
    std::unique_ptr<workloads::PerformanceModel> model_;
    Rng noise_rng_;
    Rng model_rng_;
    double noise_sigma_;

    std::vector<std::unique_ptr<IsolationDriver>> drivers_;
    std::unique_ptr<Allocation> current_;

    std::shared_ptr<FaultInjector> faults_;
    bool last_apply_ok_ = true;
    std::vector<JobObservation> last_window_; // for frozen counters

    mutable std::vector<IsoSample> iso_;

    uint64_t apply_count_ = 0;
    uint64_t observe_count_ = 0;
    uint64_t partial_observe_count_ = 0;
    double apply_latency_ms_ = 0.0;
};

} // namespace platform
} // namespace clite

#endif // CLITE_PLATFORM_SERVER_H
