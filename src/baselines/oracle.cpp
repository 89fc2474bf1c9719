#include "baselines/oracle.h"

#include <algorithm>
#include <functional>

#include "common/error.h"
#include "stats/sampling.h"

namespace clite {
namespace baselines {

namespace {

/**
 * Per-job score ingredients for one units tuple, precomputed so the
 * exhaustive enumeration costs a table lookup per job instead of a
 * model evaluation. Valid because a job's reference depends only on its
 * own allocation (partitioning-enforced isolation).
 */
struct JobCell
{
    double qos_ratio = 1.0;  ///< min(1, target/p95)   (LC)
    double perf_norm = 1.0;  ///< min(1, perf/iso)     (LC & BG)
    bool qos_met = true;     ///< LC only; BG always true.
};

} // namespace

OracleController::OracleController(OracleOptions options)
    : options_(options)
{
}

core::ControllerResult
OracleController::run(platform::SimulatedServer& server)
{
    const platform::ServerConfig& config = server.config();
    const size_t njobs = server.jobCount();
    const size_t nres = config.resourceCount();

    uint64_t space = config.configurationCount(int(njobs));
    CLITE_CHECK(space <= options_.max_configurations,
                "ORACLE would enumerate " << space
                    << " configurations, above the cap of "
                    << options_.max_configurations);

    // Per-job score ingredients for every feasible units tuple: a
    // job's cell is sum_r strides[r] * (units_r - 1), with units_r in
    // [1, units(r) - njobs + 1].
    std::vector<size_t> extents(nres), strides(nres);
    size_t cells = 1;
    for (size_t r = 0; r < nres; ++r) {
        extents[r] = size_t(config.resource(r).units) - njobs + 1;
        strides[r] = cells;
        cells *= extents[r];
    }
    std::vector<std::vector<JobCell>> tables(njobs,
                                             std::vector<JobCell>(cells));
    std::vector<int> units(nres);
    for (size_t idx = 0; idx < cells; ++idx) {
        for (size_t r = 0; r < nres; ++r)
            units[r] = int(idx / strides[r] % extents[r]) + 1;
        for (size_t j = 0; j < njobs; ++j) {
            const platform::JobObservation ob = server.reference(j, units);
            tables[j][idx] = {std::clamp(ob.qosRatio(), 1e-6, 1.0),
                              ob.perfNorm(), ob.qosMet()};
        }
    }
    std::vector<size_t> lc_jobs = server.lcJobs();
    std::vector<size_t> bg_jobs = server.bgJobs();
    // Mode 2 averages BG performance, or LC performance when no BG
    // jobs are co-located (N_BG -> N_LC).
    const std::vector<size_t>& perf_jobs =
        bg_jobs.empty() ? lc_jobs : bg_jobs;

    platform::Allocation current(njobs, config);
    platform::Allocation best(njobs, config);
    double best_score = -1.0;
    uint64_t enumerated = 0;

    auto cell = [&](size_t j) -> const JobCell& {
        size_t idx = 0;
        for (size_t r = 0; r < nres; ++r)
            idx += strides[r] * size_t(current.get(j, r) - 1);
        return tables[j][idx];
    };
    auto score_current = [&]() {
        // Mirrors core::scoreObservations (Eq. 3, arithmetic means).
        bool met = true;
        double ratio_sum = 0.0;
        for (size_t j : lc_jobs) {
            const JobCell& c = cell(j);
            met = met && c.qos_met;
            ratio_sum += c.qos_ratio;
        }
        if (!met) {
            double m = lc_jobs.empty()
                           ? 1.0
                           : ratio_sum / double(lc_jobs.size());
            return 0.5 * m;
        }
        double perf_sum = 0.0;
        for (size_t j : perf_jobs)
            perf_sum += cell(j).perf_norm;
        double m = perf_jobs.empty()
                       ? 1.0
                       : perf_sum / double(perf_jobs.size());
        return 0.5 + 0.5 * m;
    };

    std::function<void(size_t)> recurse = [&](size_t r) {
        if (r == nres) {
            ++enumerated;
            double s = score_current();
            if (s > best_score) {
                best_score = s;
                best = current;
            }
            return;
        }
        stats::forEachComposition(
            config.resource(r).units, int(njobs),
            [&](const std::vector<int>& parts) {
                for (size_t j = 0; j < njobs; ++j)
                    current.set(j, r, parts[j]);
                recurse(r + 1);
                return true;
            },
            1);
    };
    recurse(0);
    CLITE_ASSERT(enumerated == space,
                 "enumerated " << enumerated << " of " << space
                               << " configurations");

    // The winner's full ground-truth view for the trace.
    std::vector<platform::JobObservation> best_obs =
        server.observeNoiseless(best);
    core::ScoreBreakdown sb = core::scoreObservations(best_obs);

    core::ControllerResult result;
    result.samples = int(enumerated);
    result.best = best;
    result.best_score = sb.score;
    result.feasible = sb.all_qos_met;
    result.trace.emplace_back(best, sb.score, sb.all_qos_met,
                              std::move(best_obs));
    server.apply(best);
    return result;
}

} // namespace baselines
} // namespace clite
