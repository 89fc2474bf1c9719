#include "baselines/parties.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/rng.h"

namespace clite {
namespace baselines {

namespace {

/// Slack below this is a QoS violation.
constexpr double kUpThreshold = 0.0;
/// Slack above this donates resources.
constexpr double kDownThreshold = 0.3;
/// Relative latency improvement required to keep trying a resource.
constexpr double kImproveEpsilon = 0.02;
/// Quiet rounds before declaring done.
constexpr int kStableRounds = 3;

/** QoS slack of one observation: (target - p95)/target; BG = +inf. */
double
slack(const platform::JobObservation& ob)
{
    if (!ob.is_lc)
        return std::numeric_limits<double>::infinity();
    if (ob.qos_target_ms <= 0.0)
        return 0.0;
    return (ob.qos_target_ms - ob.p95_ms) / ob.qos_target_ms;
}

} // namespace

PartiesController::PartiesController(PartiesOptions options)
    : options_(options)
{
    CLITE_CHECK(options_.max_samples >= 1, "PARTIES needs >= 1 sample");
}

core::ControllerResult
PartiesController::run(platform::SimulatedServer& server)
{
    const size_t njobs = server.jobCount();
    const size_t nres = server.config().resourceCount();
    Rng rng(options_.seed);

    std::vector<core::SampleRecord> trace;
    platform::Allocation current =
        platform::Allocation::equalShare(njobs, server.config());

    // Per-job FSM pointer: which resource to adjust next.
    std::vector<size_t> fsm(njobs, 0);
    // Latency of each LC job at its previous measurement, to judge
    // whether the last upsize helped.
    std::vector<double> last_p95(njobs, -1.0);
    int last_upsized = -1;
    // Jobs whose last downsize caused a QoS violation are not donated
    // from again: this is PARTIES' stabilization — without it the
    // donate/reclaim pair cycles until the sample budget is gone.
    std::vector<bool> donate_blocked(njobs, false);
    int last_downsized = -1;

    int quiet_rounds = 0;
    while (int(trace.size()) < options_.max_samples) {
        trace.push_back(core::evaluateSample(server, current));
        const auto& obs = trace.back().observations;

        // Did the previous upsize help its job? If not, advance FSM.
        if (last_upsized >= 0) {
            double before = last_p95[size_t(last_upsized)];
            double after = obs[size_t(last_upsized)].p95_ms;
            if (before > 0.0 &&
                after > before * (1.0 - kImproveEpsilon))
                fsm[size_t(last_upsized)] =
                    (fsm[size_t(last_upsized)] + 1) % nres;
        }
        // Did the previous downsize break its donor's QoS? Freeze it.
        if (last_downsized >= 0 &&
            !obs[size_t(last_downsized)].qosMet())
            donate_blocked[size_t(last_downsized)] = true;
        last_downsized = -1;

        for (size_t j = 0; j < njobs; ++j)
            if (obs[j].is_lc)
                last_p95[j] = obs[j].p95_ms;
        last_upsized = -1;

        // Find the most violating LC job (min slack < kUpThreshold).
        int violator = -1;
        double worst = kUpThreshold;
        for (size_t j = 0; j < njobs; ++j) {
            double s = slack(obs[j]);
            if (obs[j].is_lc && s < worst) {
                worst = s;
                violator = int(j);
            }
        }

        if (violator >= 0) {
            quiet_rounds = 0;
            // Upsize: move one unit of the FSM resource to the
            // violator, taken from the job with the most slack that
            // can spare a unit (BG jobs count as infinite slack).
            bool moved = false;
            for (size_t attempt = 0; attempt < nres && !moved; ++attempt) {
                size_t r = fsm[size_t(violator)];
                int victim = -1;
                double best_slack = -std::numeric_limits<double>::infinity();
                for (size_t j = 0; j < njobs; ++j) {
                    if (int(j) == violator || current.get(j, r) <= 1)
                        continue;
                    double s = slack(obs[j]);
                    if (s > best_slack) {
                        best_slack = s;
                        victim = int(j);
                    }
                }
                if (victim >= 0) {
                    moved = current.transferUnit(r, size_t(victim),
                                                 size_t(violator));
                    if (moved)
                        last_upsized = violator;
                }
                if (!moved)
                    fsm[size_t(violator)] =
                        (fsm[size_t(violator)] + 1) % nres;
            }
            if (!moved) {
                // Nothing left to take anywhere: PARTIES concludes the
                // co-location cannot be satisfied.
                break;
            }
            continue;
        }

        // All LC jobs fine. Downsize the slackest LC job and donate to
        // a background job (PARTIES reclaims best-effort resources).
        int donor = -1;
        double most = kDownThreshold;
        for (size_t j = 0; j < njobs; ++j) {
            double s = slack(obs[j]);
            if (obs[j].is_lc && !donate_blocked[j] && s > most) {
                most = s;
                donor = int(j);
            }
        }
        std::vector<size_t> bg;
        for (size_t j = 0; j < njobs; ++j)
            if (!obs[j].is_lc)
                bg.push_back(j);

        bool acted = false;
        if (donor >= 0 && !bg.empty()) {
            size_t r = fsm[size_t(donor)];
            size_t target = bg[size_t(rng.uniformInt(
                0, int64_t(bg.size()) - 1))];
            acted = current.transferUnit(r, size_t(donor), target);
            fsm[size_t(donor)] = (fsm[size_t(donor)] + 1) % nres;
            if (acted)
                last_downsized = donor;
        }
        if (!acted) {
            if (++quiet_rounds >= kStableRounds)
                break; // converged: QoS met and nothing to reclaim
        } else {
            quiet_rounds = 0;
        }
    }

    // PARTIES keeps the last QoS-satisfying configuration it reached,
    // not the best-scoring one (it does not track scores); model that
    // by preferring the LAST all-QoS-met sample, falling back to the
    // best score when none met QoS.
    core::ControllerResult result;
    result.samples = int(trace.size());
    int last_ok = -1;
    for (size_t i = 0; i < trace.size(); ++i)
        if (trace[i].all_qos_met)
            last_ok = int(i);
    size_t pick;
    if (last_ok >= 0) {
        pick = size_t(last_ok);
        result.feasible = true;
    } else {
        pick = 0;
        for (size_t i = 1; i < trace.size(); ++i)
            if (trace[i].score > trace[pick].score)
                pick = i;
    }
    result.best = trace[pick].alloc;
    result.best_score = trace[pick].score;
    result.trace = std::move(trace);
    server.apply(*result.best);
    return result;
}

} // namespace baselines
} // namespace clite
