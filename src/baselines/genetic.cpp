#include "baselines/genetic.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "stats/sampling.h"

namespace clite {
namespace baselines {

namespace {

/// Offspring evaluated per generation.
constexpr int kChildrenPerGen = 4;
/// Probability a child is mutated.
constexpr double kMutationProb = 0.6;
/// Unit moves per mutation.
constexpr int kMutationMoves = 2;

/** Uniformly random valid allocation. */
platform::Allocation
randomAllocation(size_t njobs, const platform::ServerConfig& config,
                 Rng& rng)
{
    platform::Allocation a(njobs, config);
    for (size_t r = 0; r < config.resourceCount(); ++r) {
        std::vector<int> parts = stats::sampleComposition(
            config.resource(r).units, int(njobs), rng, 1);
        for (size_t j = 0; j < njobs; ++j)
            a.set(j, r, parts[j]);
    }
    a.validate();
    return a;
}

} // namespace

GeneticController::GeneticController(GeneticOptions options)
    : options_(options)
{
    CLITE_CHECK(options_.population >= 2, "GENETIC needs population >= 2");
    CLITE_CHECK(options_.budget >= options_.population,
                "GENETIC budget must cover the initial population");
}

core::ControllerResult
GeneticController::run(platform::SimulatedServer& server)
{
    const platform::ServerConfig& config = server.config();
    const size_t njobs = server.jobCount();
    const size_t nres = config.resourceCount();
    Rng rng(options_.seed);

    std::vector<core::SampleRecord> trace;

    // Initial population.
    for (int i = 0; i < options_.population; ++i)
        trace.push_back(core::evaluateSample(
            server, randomAllocation(njobs, config, rng)));

    while (int(trace.size()) < options_.budget) {
        // Selection: the two highest-scoring samples so far.
        size_t p1 = 0, p2 = 1;
        if (trace[p2].score > trace[p1].score)
            std::swap(p1, p2);
        for (size_t i = 2; i < trace.size(); ++i) {
            if (trace[i].score > trace[p1].score) {
                p2 = p1;
                p1 = i;
            } else if (trace[i].score > trace[p2].score) {
                p2 = i;
            }
        }

        int kids =
            std::min(kChildrenPerGen, options_.budget - int(trace.size()));
        for (int k = 0; k < kids; ++k) {
            // Crossover: inherit each resource's whole partition row
            // from one parent (keeps per-resource sums valid).
            platform::Allocation child(njobs, config);
            for (size_t r = 0; r < nres; ++r) {
                const platform::Allocation& src =
                    rng.bernoulli(0.5) ? trace[p1].alloc : trace[p2].alloc;
                for (size_t j = 0; j < njobs; ++j)
                    child.set(j, r, src.get(j, r));
            }
            // Mutation: move units of random resources between jobs.
            if (rng.bernoulli(kMutationProb)) {
                for (int m = 0; m < kMutationMoves; ++m) {
                    size_t r = size_t(rng.uniformInt(0, int64_t(nres) - 1));
                    size_t from =
                        size_t(rng.uniformInt(0, int64_t(njobs) - 1));
                    size_t to =
                        size_t(rng.uniformInt(0, int64_t(njobs) - 1));
                    if (from != to)
                        child.transferUnit(r, from, to);
                }
            }
            child.validate();
            trace.push_back(core::evaluateSample(server, child));
        }
    }

    return core::finalizeResult(server, std::move(trace));
}

} // namespace baselines
} // namespace clite
