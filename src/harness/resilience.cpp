#include "harness/resilience.h"

#include <memory>

#include "common/error.h"

namespace clite {
namespace harness {

ResilienceOutcome
runResilient(const ResilienceSpec& spec)
{
    spec.plan.validate();
    platform::SimulatedServer server = makeServer(spec.server);
    auto injector = std::make_shared<platform::FaultInjector>(
        spec.plan, spec.fault_seed);
    server.setFaultInjector(injector);

    std::unique_ptr<core::Controller> ctl =
        makeScheme(spec.scheme, spec.seed);

    ResilienceOutcome out;
    out.result = ctl->run(server);
    out.found_config = out.result.best.has_value();
    out.samples = out.result.samples;
    out.wasted_samples = out.result.wastedSamples();
    out.fault_events = int(injector->events().size());
    for (const auto& rec : out.result.trace)
        if (rec.usable() && !rec.all_qos_met)
            ++out.violation_windows;

    if (out.found_config) {
        // Ground truth of the partition the server was left running:
        // observeNoiseless() reads the closed form, bypassing
        // measurement noise, DES sampling and the fault injector.
        core::ScoreBreakdown truth = core::scoreObservations(
            server.observeNoiseless(*out.result.best));
        out.truth_score = truth.score;
        out.truth_qos_met = truth.all_qos_met;
    }
    return out;
}

platform::FaultPlan
scaledFaultPlan(double rate)
{
    CLITE_CHECK(rate >= 0.0 && rate <= 1.0,
                "fault rate must be in [0, 1], got " << rate);
    platform::FaultPlan plan;
    plan.apply_fail_prob = rate;
    plan.dropout_prob = rate / 2.0;
    plan.spike_prob = rate / 2.0;
    plan.freeze_prob = rate / 4.0;
    return plan;
}

std::vector<ResilienceSweepRow>
faultRateSweep(const std::vector<std::string>& schemes,
               const ServerSpec& server, const std::vector<double>& rates,
               uint64_t seed)
{
    std::vector<ResilienceSweepRow> rows;
    rows.reserve(schemes.size() * rates.size());
    for (const std::string& scheme : schemes) {
        double clean_score = 0.0;
        bool have_clean = false;
        for (double rate : rates) {
            ResilienceSpec spec;
            spec.server = server;
            spec.scheme = scheme;
            spec.plan = scaledFaultPlan(rate);
            spec.seed = seed;

            ResilienceSweepRow row;
            row.scheme = scheme;
            row.fault_rate = rate;
            row.outcome = runResilient(spec);
            if (rate == 0.0 && !have_clean) {
                clean_score = row.outcome.truth_score;
                have_clean = true;
            }
            row.score_degradation =
                have_clean ? clean_score - row.outcome.truth_score : 0.0;
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

} // namespace harness
} // namespace clite
