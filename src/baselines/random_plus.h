/**
 * @file
 * RAND+ baseline (Sec. 5.1): stochastic search that draws
 * configurations uniformly from the space of valid partitions and
 * discards draws that are too close (Euclidean distance in normalized
 * coordinates) to already-sampled configurations, to avoid wasting
 * samples on near-duplicates. A preset budget of configurations is
 * collected and the best by Eq. 3 score wins.
 */

#ifndef CLITE_BASELINES_RANDOM_PLUS_H
#define CLITE_BASELINES_RANDOM_PLUS_H

#include <cstdint>

#include "core/controller.h"

namespace clite {
namespace baselines {

/** RAND+ tuning knobs. */
struct RandomPlusOptions
{
    /**
     * Preset sample budget; the paper sets it above CLITE's average
     * so the evolutionary baselines are competitive on quality even
     * at higher overhead (Fig. 15a).
     */
    int budget = 50;
    /** Minimum normalized Euclidean distance to prior samples. */
    double min_distance = 0.08;
    uint64_t seed = 13; ///< RNG seed.
};

/**
 * The RAND+ policy.
 */
class RandomPlusController : public core::Controller
{
  public:
    explicit RandomPlusController(RandomPlusOptions options = {});

    std::string name() const override { return "rand+"; }

    core::ControllerResult run(platform::SimulatedServer& server) override;

  private:
    RandomPlusOptions options_;
};

} // namespace baselines
} // namespace clite

#endif // CLITE_BASELINES_RANDOM_PLUS_H
