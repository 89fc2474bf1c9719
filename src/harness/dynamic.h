/**
 * @file
 * Dynamic-load adaptation scenario (Fig. 16).
 *
 * One LC job's load steps through a schedule (the paper steps
 * memcached from 10% to 30% with img-dnn and masstree pinned at 10%
 * and fluidanimate in the background). After every load change CLITE
 * is re-invoked, seeded with the incumbent configuration; the harness
 * records the allocations and BG performance over (sample-numbered)
 * time, showing the exploration dip and re-stabilization.
 */

#ifndef CLITE_HARNESS_DYNAMIC_H
#define CLITE_HARNESS_DYNAMIC_H

#include <string>
#include <vector>

#include "core/clite.h"
#include "core/monitor.h"
#include "harness/schemes.h"
#include "workloads/load_trace.h"

namespace clite {
namespace harness {

/** One timeline entry of the dynamic run. */
struct DynamicStep
{
    int sample = 0;          ///< Global observation-window number.
    double changed_load = 0; ///< Load of the stepped job at this time.
    bool all_qos_met = false;///< QoS state.
    double bg_perf = 0.0;    ///< Mean BG normalized performance.
    bool exploring = false;  ///< True while the controller searches.
    std::vector<std::vector<int>> alloc; ///< Full job x resource matrix.
};

/** Outcome of the dynamic scenario. */
struct DynamicResult
{
    std::vector<DynamicStep> timeline; ///< Every observation window.
    std::vector<int> stabilization_samples; ///< Samples to re-stabilize
                                            ///< after each load step.
    bool all_phases_feasible = true; ///< QoS met at every stable point.
};

/**
 * Run the Fig. 16 scenario.
 *
 * @param spec Server spec; jobs[changed_job] must be LC.
 * @param changed_job Index of the job whose load steps.
 * @param load_schedule Successive loads (first entry is the initial
 *     load; each later entry triggers a re-optimization).
 * @param settle_windows Stable observation windows recorded between
 *     load steps.
 * @param options CLITE options for the controller.
 */
DynamicResult runDynamicScenario(const ServerSpec& spec, size_t changed_job,
                                 const std::vector<double>& load_schedule,
                                 int settle_windows = 5,
                                 const core::CliteOptions& options = {});

/** One monitored window of a trace replay. */
struct ReplayWindow
{
    double time_s = 0.0;      ///< Wall-clock of this window.
    double load = 0.0;        ///< Trace load in effect.
    bool all_qos_met = false; ///< QoS state observed.
    /** Eq. 3 score observed (OnlineManager::Tick::score: its LC perf
     *  terms divide by the last search's isolation baselines). */
    double score = 0.0;
    bool reoptimized = false; ///< A re-optimization ran this window.
    std::string reason;       ///< Trigger, when reoptimized.
    double worst_p95_ratio = 0.0; ///< Worst LC p95/target this window.
    double worst_p99_ratio = 0.0; ///< Worst LC p99/target this window.
};

/** Outcome of a trace replay through the OnlineManager. */
struct TraceReplayResult
{
    std::vector<ReplayWindow> windows; ///< Every monitoring window.
    int reoptimizations = 0;           ///< Searches triggered.
    double qos_met_fraction = 0.0;     ///< Fraction of windows with QoS.
    /** Fraction of fault-free windows with a p95 QoS violation. */
    double violating_window_fraction = 0.0;
    int transients_ridden = 0; ///< Violation bursts ridden out.
    int sustained_shifts = 0;  ///< Ridden shifts that forced a search.
};

/**
 * Drive one LC job's load from @p trace while the OnlineManager
 * monitors and re-invokes CLITE (the steady-state production loop).
 *
 * @param spec Server spec; jobs[traced_job] must be LC.
 * @param traced_job Job whose load follows the trace.
 * @param trace Load trace.
 * @param duration_s Total replay time.
 * @param window_s Observation window length (the paper's 2 s).
 * @param clite_options CLITE knobs.
 * @param monitor_options Monitoring knobs.
 */
TraceReplayResult replayLoadTrace(
    const ServerSpec& spec, size_t traced_job,
    const workloads::LoadTrace& trace, double duration_s,
    double window_s = 2.0, const core::CliteOptions& clite_options = {},
    const core::MonitorOptions& monitor_options = {});

} // namespace harness
} // namespace clite

#endif // CLITE_HARNESS_DYNAMIC_H
