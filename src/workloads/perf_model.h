/**
 * @file
 * Performance models: allocation -> (tail latency | throughput).
 *
 * This is the substitute for the paper's physical testbed (see
 * DESIGN.md Sec. 2). Two interchangeable backends implement the same
 * cost derivation:
 *
 *  - AnalyticModel: closed-form M/M/c queueing (Erlang-C) for LC tail
 *    latency and a rate equation for BG throughput. Fast enough for
 *    the ORACLE brute-force sweeps (~1 µs per evaluation).
 *  - QueueingSimModel: the discrete-event simulator of sim/ replays
 *    the same M/M/c queue — exponential service draws at the derived
 *    mean service time, Poisson arrivals — over a warm-up +
 *    observation window (the paper's two-second measurement period)
 *    and reports the empirical p95.
 *
 * Cost derivation per job given its allocation (cores c, ways w,
 * bandwidth units b, optional capacity/disk/net units):
 *
 *   miss(w)    = floor + (1-floor) * 2^-((w-1)/half)
 *   bw_demand  = traffic * miss(w) * offered_rate
 *   bw_stall   = 1 + k_bw * max(0, bw_demand/bw_alloc - 1)   (capped)
 *   t_service  = [cpu + mem * miss(w) * bw_stall + io(disk,net)] * paging
 *   LC p95     = M/M/c response-time 95th percentile at (c, lambda,
 *                1/t_service)
 *   BG rate    = amdahl(c) / t_service (ops/s), amdahl(c) =
 *                1 / ((1-p) + p/c)
 *
 * The interaction structure the paper leans on is built in: ways
 * reduce misses which both shortens memory stalls AND sheds bandwidth
 * demand, so cache and bandwidth allocations are partially
 * interchangeable (the "resource equivalence class" property), while
 * cores trade against service-time inflation through queueing.
 */

#ifndef CLITE_WORKLOADS_PERF_MODEL_H
#define CLITE_WORKLOADS_PERF_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "platform/allocation.h"
#include "platform/resource.h"
#include "workloads/profile.h"

namespace clite {
namespace workloads {

/** Raw model output for one job under one allocation. */
struct JobMeasurement
{
    double p95_ms = 0.0;       ///< p95 response time (LC; 0 for BG).
    double p99_ms = 0.0;       ///< p99 response time (LC; 0 for BG).
    double mean_ms = 0.0;      ///< Mean response time (LC; 0 for BG).
    double throughput = 0.0;   ///< Completions/s (LC) or ops/s (BG).
    double service_ms = 0.0;   ///< Derived per-query/op service time.
    double miss_ratio = 0.0;   ///< LLC miss ratio at the allocation.
    double bw_stall = 1.0;     ///< Bandwidth-contention inflation.
    bool saturated = false;    ///< LC: offered load exceeds capacity.
};

/**
 * Intermediate service-cost derivation shared by both backends;
 * exposed for white-box tests of the interaction structure.
 */
struct ServiceCost
{
    double service_ms = 0.0; ///< Total per-query/op time.
    double miss_ratio = 0.0; ///< miss(w).
    double bw_stall = 1.0;   ///< Bandwidth stall multiplier.
    double paging = 1.0;     ///< Capacity-pressure multiplier.
    int cores = 1;           ///< Cores allocated.
};

/**
 * Derive the per-query/op service cost of @p job given the units of
 * each resource in @p units (aligned with @p config's resource order).
 *
 * @param job The job being modeled.
 * @param units Allocated units per resource.
 * @param config Server description (peak bandwidths etc.).
 * @param offered_rate Offered arrival rate for bandwidth-demand
 *     purposes: queries/s for LC; for BG pass 0 (the model uses the
 *     core count instead).
 */
ServiceCost deriveServiceCost(const JobSpec& job,
                              const std::vector<int>& units,
                              const platform::ServerConfig& config,
                              double offered_rate);

/**
 * The stationary closed form of @p job under @p units (Erlang-C for
 * LC, the rate equation for BG): the analytic backend's measurement
 * and, since every DES station is the same M/M/c queue, the DES's
 * expectation. Ground truth on every backend.
 */
JobMeasurement closedFormMeasure(const JobSpec& job,
                                 const std::vector<int>& units,
                                 const platform::ServerConfig& config);

/**
 * Abstract performance model.
 */
class PerformanceModel
{
  public:
    virtual ~PerformanceModel() = default;

    /**
     * Measure @p job under the allocation @p units.
     *
     * @param job Job spec (profile + load).
     * @param units Allocated units, one per config resource.
     * @param config Server description.
     * @param rng Randomness for stochastic backends; unused by
     *     deterministic ones.
     */
    virtual JobMeasurement measure(const JobSpec& job,
                                   const std::vector<int>& units,
                                   const platform::ServerConfig& config,
                                   Rng& rng) const = 0;

    /** Backend name ("analytic" | "des"). */
    virtual std::string name() const = 0;

    /**
     * Switch the model's measurement event budget (coarse/fine mode,
     * docs/MODEL.md). Returns true when the backend honors budgets;
     * the default implementation refuses — deterministic closed-form
     * backends have no event bill to cap, and callers use the return
     * value to know whether coarse mode actually engaged.
     */
    virtual bool setEventBudget(uint64_t /*budget*/) { return false; }

    /** The active measurement event budget (0 = fine/unlimited). */
    virtual uint64_t eventBudget() const { return 0; }
};

/**
 * Closed-form queueing backend (deterministic).
 */
class AnalyticModel : public PerformanceModel
{
  public:
    JobMeasurement measure(const JobSpec& job, const std::vector<int>& units,
                           const platform::ServerConfig& config,
                           Rng& rng) const override;
    std::string name() const override { return "analytic"; }
};

/**
 * Discrete-event-simulation backend.
 */
class QueueingSimModel : public PerformanceModel
{
  public:
    /**
     * @param warmup_s Transient discarded before measuring.
     * @param window_s Measured window (the paper's observation period
     *     is two seconds).
     * @param event_budget Cap on the expected number of measured
     *     requests per LC window; 0 (the default) simulates the full
     *     window. A positive budget shortens the measured span to
     *     min(window, budget / λ) — an unbiased but noisier estimate
     *     whose accuracy contract is documented in docs/MODEL.md and
     *     pinned by tests/sim/queueing_budget_test.cpp. The default
     *     stays unlimited so fine-budget results (and every golden
     *     that depends on them) are unchanged.
     */
    explicit QueueingSimModel(double warmup_s = 1.0, double window_s = 2.0,
                              uint64_t event_budget = 0);

    JobMeasurement measure(const JobSpec& job, const std::vector<int>& units,
                           const platform::ServerConfig& config,
                           Rng& rng) const override;
    std::string name() const override { return "des"; }

    /**
     * Re-budget the model in place: the controller flips one model
     * between coarse search probes and fine validation/monitoring
     * windows instead of rebuilding servers.
     */
    bool setEventBudget(uint64_t budget) override
    {
        event_budget_ = budget;
        return true;
    }

    /** The per-window measured-request cap (0 = unlimited). */
    uint64_t eventBudget() const override { return event_budget_; }

  private:
    double warmup_s_;
    double window_s_;
    uint64_t event_budget_;
};

} // namespace workloads
} // namespace clite

#endif // CLITE_WORKLOADS_PERF_MODEL_H
