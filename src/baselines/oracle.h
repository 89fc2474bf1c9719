/**
 * @file
 * ORACLE brute-force policy (Sec. 5.1).
 *
 * Enumerates every valid resource-partition configuration (the full
 * N_conf product of per-resource compositions), scores each against
 * ground truth, and returns the global optimum of Eq. 3. Ground truth
 * is every job's noise-free reference (SimulatedServer::reference()):
 * the stationary closed form normalized by the job's measured
 * isolation profile, on either backend, so the sweep never simulates.
 * As in the paper this is an offline yardstick — it samples thousands
 * to millions of configurations and is infeasible online — used to
 * normalize every other policy's result quality.
 */

#ifndef CLITE_BASELINES_ORACLE_H
#define CLITE_BASELINES_ORACLE_H

#include <cstdint>

#include "core/controller.h"

namespace clite {
namespace baselines {

/** ORACLE options. */
struct OracleOptions
{
    /**
     * Safety cap on enumerated configurations; the search throws if
     * the space is larger (raise deliberately for big sweeps).
     */
    uint64_t max_configurations = 20'000'000;
};

/**
 * Exhaustive-search policy.
 */
class OracleController : public core::Controller
{
  public:
    explicit OracleController(OracleOptions options = {});

    std::string name() const override { return "oracle"; }

    /**
     * Enumerate and score every configuration. The returned trace
     * contains ONLY the best configuration (storing millions of
     * samples is pointless); `samples` reports the number enumerated.
     */
    core::ControllerResult run(platform::SimulatedServer& server) override;

  private:
    OracleOptions options_;
};

} // namespace baselines
} // namespace clite

#endif // CLITE_BASELINES_ORACLE_H
