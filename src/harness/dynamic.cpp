#include "harness/dynamic.h"

#include "common/error.h"
#include "harness/analysis.h"
#include "workloads/traffic/traffic.h"

namespace clite {
namespace harness {

namespace {

/** Snapshot one controller sample into the timeline. */
DynamicStep
toStep(int sample, double load, bool exploring,
       const core::SampleRecord& rec)
{
    DynamicStep step;
    step.sample = sample;
    step.changed_load = load;
    step.all_qos_met = rec.all_qos_met;
    step.bg_perf = meanBgPerformance(rec.observations);
    step.exploring = exploring;
    for (size_t j = 0; j < rec.alloc.jobs(); ++j)
        step.alloc.push_back(rec.alloc.row(j));
    return step;
}

} // namespace

DynamicResult
runDynamicScenario(const ServerSpec& spec, size_t changed_job,
                   const std::vector<double>& load_schedule,
                   int settle_windows, const core::CliteOptions& options)
{
    CLITE_CHECK(load_schedule.size() >= 2,
                "dynamic scenario needs at least two load phases");
    CLITE_CHECK(changed_job < spec.jobs.size(),
                "changed_job out of range");
    CLITE_CHECK(spec.jobs[changed_job].isLatencyCritical(),
                "the stepped job must be latency-critical");

    ServerSpec init = spec;
    init.jobs[changed_job].load_fraction = load_schedule[0];
    platform::SimulatedServer server = makeServer(init);
    core::CliteController clite(options);

    DynamicResult out;
    int sample = 0;

    auto record_run = [&](const core::ControllerResult& r, double load) {
        for (const auto& rec : r.trace)
            out.timeline.push_back(toStep(++sample, load, true, rec));
        out.stabilization_samples.push_back(int(r.trace.size()));
        // Stable windows at the chosen configuration. The timeline
        // logs the noisy per-window measurements; the phase verdict
        // uses the noise-free ground truth so a single unlucky window
        // does not mislabel a genuinely feasible phase.
        for (int w = 0; w < settle_windows; ++w) {
            std::vector<platform::JobObservation> obs = server.observe();
            core::ScoreBreakdown sb = core::scoreObservations(obs);
            core::SampleRecord rec(server.currentAllocation(), sb.score,
                                   sb.all_qos_met, obs);
            out.timeline.push_back(toStep(++sample, load, false, rec));
        }
        core::ScoreBreakdown truth = core::scoreObservations(
            server.observeNoiseless(server.currentAllocation()));
        out.all_phases_feasible =
            out.all_phases_feasible && truth.all_qos_met;
    };

    // Initial optimization.
    core::ControllerResult r = clite.run(server);
    record_run(r, load_schedule[0]);
    platform::Allocation incumbent = *r.best;

    // Load steps: CLITE is re-invoked on each change (Sec. 4: "if the
    // observed performance or the job mix changes, CLITE can be
    // reinvoked").
    for (size_t phase = 1; phase < load_schedule.size(); ++phase) {
        server.setLoad(changed_job, load_schedule[phase]);
        core::ControllerResult rr = clite.reoptimize(server, incumbent);
        record_run(rr, load_schedule[phase]);
        incumbent = *rr.best;
    }
    return out;
}

TraceReplayResult
replayLoadTrace(const ServerSpec& spec, size_t traced_job,
                const workloads::LoadTrace& trace, double duration_s,
                double window_s, const core::CliteOptions& clite_options,
                const core::MonitorOptions& monitor_options)
{
    CLITE_CHECK(traced_job < spec.jobs.size(), "traced_job out of range");
    CLITE_CHECK(spec.jobs[traced_job].isLatencyCritical(),
                "the traced job must be latency-critical");
    CLITE_CHECK(duration_s > 0.0 && window_s > 0.0,
                "duration and window must be > 0");

    ServerSpec init = spec;
    init.jobs[traced_job].load_fraction = trace.loadAt(0.0);
    // Stamp the trace identity so mix signatures (and therefore the
    // warm-start store) key this job by trace kind + mean load rather
    // than whatever instantaneous load the replay started at.
    if (init.jobs[traced_job].trace_kind.empty()) {
        init.jobs[traced_job].trace_kind = trace.name();
        init.jobs[traced_job].trace_mean_load =
            workloads::traffic::traceMeanLoad(trace, duration_s, window_s);
    }
    platform::SimulatedServer server = makeServer(init);
    core::OnlineManager manager(server, clite_options, monitor_options);
    manager.initialize();

    TraceReplayResult out;
    int met = 0;
    for (double t = 0.0; t < duration_s; t += window_s) {
        server.setLoad(traced_job, trace.loadAt(t));
        core::OnlineManager::Tick tick = manager.tick();

        ReplayWindow w;
        w.time_s = t;
        w.load = trace.loadAt(t);
        w.all_qos_met = tick.all_qos_met;
        w.score = tick.score;
        w.reoptimized = tick.reoptimized;
        w.reason = tick.reason;
        out.windows.push_back(std::move(w));
        met += tick.all_qos_met ? 1 : 0;
    }
    // Every tick records exactly one WindowQos entry; zip the ratio
    // series back onto the timeline.
    const std::vector<core::WindowQos>& qos = manager.qosTimeline();
    if (qos.size() == out.windows.size()) {
        for (size_t i = 0; i < qos.size(); ++i) {
            out.windows[i].worst_p95_ratio = qos[i].worst_p95_ratio;
            out.windows[i].worst_p99_ratio = qos[i].worst_p99_ratio;
        }
    }
    out.reoptimizations = manager.reoptimizations();
    out.qos_met_fraction =
        out.windows.empty() ? 0.0 : double(met) / double(out.windows.size());
    out.violating_window_fraction = manager.violatingWindowFraction();
    out.transients_ridden = manager.transientsRidden();
    out.sustained_shifts = manager.sustainedShifts();
    return out;
}

} // namespace harness
} // namespace clite
