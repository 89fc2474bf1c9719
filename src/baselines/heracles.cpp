#include "baselines/heracles.h"

#include "common/error.h"

namespace clite {
namespace baselines {

/// Quiet rounds before declaring done.
constexpr int kStableRounds = 2;

HeraclesController::HeraclesController(HeraclesOptions options)
    : options_(options)
{
    CLITE_CHECK(options_.max_samples >= 1, "Heracles needs >= 1 sample");
}

core::ControllerResult
HeraclesController::run(platform::SimulatedServer& server)
{
    const size_t njobs = server.jobCount();
    const size_t nres = server.config().resourceCount();

    std::vector<size_t> lc = server.lcJobs();
    CLITE_CHECK(!lc.empty(), "Heracles needs at least one LC job");
    const size_t primary = lc.front();

    std::vector<core::SampleRecord> trace;
    platform::Allocation current =
        platform::Allocation::equalShare(njobs, server.config());

    size_t fsm = 0; // resource to grow next
    int quiet = 0;
    while (int(trace.size()) < options_.max_samples) {
        trace.push_back(core::evaluateSample(server, current));
        const auto& obs = trace.back().observations;

        const auto& pob = obs[primary];
        if (pob.qosMet()) {
            // Primary satisfied; Heracles holds the partition.
            if (++quiet >= kStableRounds)
                break;
            continue;
        }
        quiet = 0;

        // Grow the primary by one unit of the FSM resource, taken from
        // the best-effort job holding the most of it.
        bool moved = false;
        for (size_t attempt = 0; attempt < nres && !moved; ++attempt) {
            size_t r = fsm;
            int victim = -1;
            int most = 1;
            for (size_t j = 0; j < njobs; ++j) {
                if (j == primary)
                    continue;
                if (current.get(j, r) > most) {
                    most = current.get(j, r);
                    victim = int(j);
                }
            }
            if (victim >= 0)
                moved = current.transferUnit(r, size_t(victim), primary);
            fsm = (fsm + 1) % nres;
        }
        if (!moved)
            break; // primary owns everything and still misses QoS
    }

    // Heracles keeps the final configuration; "feasible" in the
    // multi-LC sense requires every LC job's QoS, which it does not
    // manage — finalizeResult computes that from the trace honestly.
    core::ControllerResult result;
    result.samples = int(trace.size());
    int last_ok = -1;
    for (size_t i = 0; i < trace.size(); ++i)
        if (trace[i].all_qos_met)
            last_ok = int(i);
    size_t pick = last_ok >= 0 ? size_t(last_ok) : trace.size() - 1;
    result.best = trace[pick].alloc;
    result.best_score = trace[pick].score;
    result.feasible = last_ok >= 0;
    result.trace = std::move(trace);
    server.apply(*result.best);
    return result;
}

} // namespace baselines
} // namespace clite
