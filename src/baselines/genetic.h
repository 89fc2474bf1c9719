/**
 * @file
 * GENETIC baseline (Sec. 5.1): genetic-algorithm-inspired search.
 *
 * Starts from a random population of configurations; each generation
 * selects the two highest-scoring parents, produces children by
 * per-resource crossover (each child takes each resource's partition
 * row from one parent at random), then mutates them (move one unit of
 * one resource between two jobs). A preset total sample budget is
 * consumed and the best configuration by Eq. 3 score wins.
 */

#ifndef CLITE_BASELINES_GENETIC_H
#define CLITE_BASELINES_GENETIC_H

#include <cstdint>

#include "core/controller.h"

namespace clite {
namespace baselines {

/** GENETIC tuning knobs. */
struct GeneticOptions
{
    int budget = 50;    ///< Total configurations to evaluate.
    int population = 8; ///< Initial random population size.
    uint64_t seed = 17; ///< RNG seed.
};

/**
 * The GENETIC policy.
 */
class GeneticController : public core::Controller
{
  public:
    explicit GeneticController(GeneticOptions options = {});

    std::string name() const override { return "genetic"; }

    core::ControllerResult run(platform::SimulatedServer& server) override;

  private:
    GeneticOptions options_;
};

} // namespace baselines
} // namespace clite

#endif // CLITE_BASELINES_GENETIC_H
