#include "baselines/random_plus.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "stats/sampling.h"

namespace clite {
namespace baselines {

namespace {

/// Draw attempts per accepted sample before relaxing the filter.
constexpr int kMaxAttempts = 50;

double
distance(const std::vector<double>& a, const std::vector<double>& b)
{
    double d2 = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        d2 += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(d2);
}

} // namespace

RandomPlusController::RandomPlusController(RandomPlusOptions options)
    : options_(options)
{
    CLITE_CHECK(options_.budget >= 1, "RAND+ needs budget >= 1");
    CLITE_CHECK(options_.min_distance >= 0.0,
                "RAND+ distance filter must be >= 0");
}

core::ControllerResult
RandomPlusController::run(platform::SimulatedServer& server)
{
    const platform::ServerConfig& config = server.config();
    const size_t njobs = server.jobCount();
    Rng rng(options_.seed);

    std::vector<core::SampleRecord> trace;
    std::vector<std::vector<double>> sampled;

    while (int(trace.size()) < options_.budget) {
        platform::Allocation cand(njobs, config);
        bool accepted = false;
        for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
            for (size_t r = 0; r < config.resourceCount(); ++r) {
                std::vector<int> parts = stats::sampleComposition(
                    config.resource(r).units, int(njobs), rng, 1);
                for (size_t j = 0; j < njobs; ++j)
                    cand.set(j, r, parts[j]);
            }
            std::vector<double> flat = cand.flattenNormalized();
            bool too_close = false;
            for (const auto& prev : sampled) {
                if (distance(flat, prev) < options_.min_distance) {
                    too_close = true;
                    break;
                }
            }
            if (!too_close) {
                sampled.push_back(std::move(flat));
                accepted = true;
                break;
            }
        }
        if (!accepted) {
            // Filter saturated the reachable space: accept the draw
            // anyway so the budget completes.
            sampled.push_back(cand.flattenNormalized());
        }
        cand.validate();
        trace.push_back(core::evaluateSample(server, cand));
    }

    return core::finalizeResult(server, std::move(trace));
}

} // namespace baselines
} // namespace clite
