/**
 * @file
 * Common interface for co-location scheduling policies.
 *
 * CLITE and every competing policy of Sec. 5.1 (ORACLE, PARTIES,
 * Heracles, RAND+, GENETIC) implement Controller: given a server with
 * co-located jobs, search resource-partition configurations and leave
 * the server programmed with the best one found. The per-sample trace
 * feeds the convergence (Fig. 9b, 15b), overhead (Fig. 15a), and
 * variability (Fig. 11) analyses.
 */

#ifndef CLITE_CORE_CONTROLLER_H
#define CLITE_CORE_CONTROLLER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/score.h"
#include "platform/allocation.h"
#include "platform/server.h"

namespace clite {
namespace core {

/**
 * What happened to one evaluated sample. Anything other than Ok means
 * the observation cannot be trusted: the configuration was never
 * programmed (ApplyFailed), the telemetry was lost (Dropout) or
 * repeats a previous window (Stale), or a co-located job was down
 * (Crashed). Fault-aware controllers quarantine such samples — they
 * stay in the trace for accounting but never feed the surrogate or
 * win the search.
 */
enum class SampleStatus
{
    Ok,          ///< Clean observation of the requested configuration.
    ApplyFailed, ///< Partition never programmed; observed the old one.
    Dropout,     ///< Measurement lost for the window.
    Stale,       ///< Frozen counters: telemetry repeats a past window.
    Crashed,     ///< A job was down during the window.
    /**
     * Window cancelled mid-measurement by the budget layer's
     * early-abort: the partial counters already proved it clearly
     * infeasible (bo/budget.h). The recorded observations are the
     * partial readings — real (if noisier) telemetry proving a
     * mode-1 score, so the budgeted search feeds them to its
     * surrogate to stay away from the violating region — but an
     * aborted sample can never win the search, and it is charged
     * only its elapsed cost.
     */
    Aborted,
};

/** Printable name of a sample status ("ok", "apply-failed", ...). */
const char* sampleStatusName(SampleStatus status);

/** One evaluated configuration in a controller's search. */
struct SampleRecord
{
    platform::Allocation alloc;  ///< The configuration evaluated.
    double score = 0.0;          ///< Eq. 3 score observed.
    bool all_qos_met = false;    ///< Every LC job within target?
    std::vector<platform::JobObservation> observations; ///< Raw data.
    SampleStatus status = SampleStatus::Ok; ///< Fault state (see above).
    int apply_retries = 0;       ///< Extra apply attempts consumed.
    double backoff_ms = 0.0;     ///< Modeled retry back-off time.
    /**
     * Observation-window seconds this sample cost the system: the
     * full window length for a completed window (0 until the
     * controller stamps it), exactly the elapsed fraction for an
     * early-aborted one. Violating samples' costs are the
     * QoS-violating sample-seconds the budget bench gates on.
     */
    double cost_seconds = 0.0;

    SampleRecord(platform::Allocation a, double s, bool met,
                 std::vector<platform::JobObservation> obs)
        : alloc(std::move(a)), score(s), all_qos_met(met),
          observations(std::move(obs))
    {
    }

    /** True when the sample may inform a search (status == Ok). */
    bool usable() const { return status == SampleStatus::Ok; }
};

/** Outcome of one controller run. */
struct ControllerResult
{
    std::optional<platform::Allocation> best; ///< Best configuration.
    double best_score = 0.0;     ///< Eq. 3 score of the best sample.
    bool feasible = false;       ///< A QoS-satisfying config was found.
    bool infeasible_detected = false; ///< Proven impossible (max-alloc miss).
    /**
     * Server job indices of the LC jobs that missed QoS even at their
     * maximum-allocation extremum (set when infeasible_detected): the
     * jobs a cluster scheduler must move to another node, since no
     * partition of THIS node can serve them alongside this job set.
     */
    std::vector<size_t> infeasible_jobs;
    int samples = 0;             ///< Configurations evaluated.
    std::vector<SampleRecord> trace; ///< Every sample in order.
    /**
     * The budget layer stopped the search (budget exhausted or the
     * lookahead proved no remaining probe could matter). Always false
     * for unbudgeted runs.
     */
    bool budget_exhausted = false;

    /**
     * Refit observability (filled by the CLITE controller, zero for
     * baselines): hyper-refits performed, probe objective evaluations
     * they consumed, and observation windows measured in coarse
     * (event-budgeted) model mode. Printed by examples/cluster_sim so
     * refit regressions are visible without a profiler.
     */
    uint64_t refits = 0;
    uint64_t probe_evals = 0;
    uint64_t coarse_windows = 0;
    /**
     * Always 0: no hyper-fit probe starts from a warm simplex. Kept
     * because bench/e2e/workloads.cpp still reads it.
     */
    uint64_t warm_probe_hits = 0;

    /**
     * Index into trace of the first usable sample meeting all QoS
     * (-1 none). Quarantined samples never count: their QoS bits
     * describe faulted telemetry.
     */
    int firstFeasibleSample() const;

    /**
     * Observation windows burnt on faults: quarantined samples plus
     * apply retries (Fig. 15-style overhead under adverse conditions).
     */
    int wastedSamples() const;

    /** Total window-seconds charged across the trace. */
    double chargedSeconds() const;

    /**
     * Window-seconds spent while some LC job violated QoS: every
     * sample that is not a clean all-QoS-met window contributes its
     * cost (quarantined/aborted telemetry never certifies QoS). The
     * budget sweep's headline metric.
     */
    double violatingSampleSeconds() const;
};

/**
 * Abstract co-location scheduling policy.
 */
class Controller
{
  public:
    virtual ~Controller() = default;

    /** Policy name ("clite", "parties", ...). */
    virtual std::string name() const = 0;

    /**
     * Search partitions of @p server's resources among its jobs. On
     * return the server is left programmed with the best configuration
     * found.
     */
    virtual ControllerResult run(platform::SimulatedServer& server) = 0;
};

/**
 * Evaluate one allocation on the server and append a SampleRecord —
 * the shared "run the system for one observation period" step. The
 * record carries a SampleStatus derived from the server's honest
 * online signals (apply error code, missing/stale telemetry, crashed
 * processes); on a fault-free server it is always Ok.
 */
SampleRecord evaluateSample(platform::SimulatedServer& server,
                            const platform::Allocation& alloc);

/**
 * Build a SampleRecord from already-collected observations: score
 * them, then derive the SampleStatus from the server's online signals
 * exactly as evaluateSample() does (evaluateSample is this applied to
 * a fresh evaluate()). Lets callers that split apply/observe — the
 * budget layer's early-abort path peeks mid-window between the two —
 * share the status contract.
 */
SampleRecord recordFromObservations(
    const platform::SimulatedServer& server,
    const platform::Allocation& alloc,
    std::vector<platform::JobObservation> obs);

/** Base of the exponential apply-retry back-off (modeled ms). */
constexpr double kRetryBackoffMs = 8.0;

/**
 * evaluateSample() with bounded retry on transient apply failure:
 * each failed attempt backs off exponentially (modeled, accumulated
 * in SampleRecord::backoff_ms) and re-applies, up to @p max_retries
 * extra attempts. The returned record is the last attempt's; its
 * apply_retries counts the windows burnt.
 */
SampleRecord evaluateSampleResilient(platform::SimulatedServer& server,
                                     const platform::Allocation& alloc,
                                     int max_retries,
                                     double backoff_base_ms = kRetryBackoffMs);

/**
 * Finish a run: pick the best-scoring *usable* sample from @p trace,
 * re-apply it to the server, and fill the result fields. Quarantined
 * (non-Ok) samples are never eligible as the winner. When the trace
 * is empty or contains no usable sample, the result is a well-formed
 * infeasible outcome: best is empty, best_score is 0, feasible is
 * false, the trace is retained for accounting and the server is left
 * untouched. (`best == nullopt && !infeasible_detected` therefore
 * reads "the search produced no usable sample", while
 * infeasible_detected keeps its proven-impossible meaning.)
 */
ControllerResult finalizeResult(platform::SimulatedServer& server,
                                std::vector<SampleRecord> trace,
                                bool infeasible_detected = false,
                                std::vector<size_t> infeasible_jobs = {});

} // namespace core
} // namespace clite

#endif // CLITE_CORE_CONTROLLER_H
