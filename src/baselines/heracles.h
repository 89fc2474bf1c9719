/**
 * @file
 * Heracles baseline (Lo et al., ISCA 2015), as characterized in the
 * paper's evaluation: a controller designed for exactly ONE
 * latency-critical job co-located with best-effort work. It grows the
 * primary LC job's share of each resource until that job's QoS is met;
 * every other job — including any additional LC jobs — is treated as
 * best-effort and receives only the leftovers. Consequently it cannot
 * co-locate multiple LC jobs (Fig. 7a: Heracles supports no memcached
 * load once img-dnn and masstree are also latency-critical).
 */

#ifndef CLITE_BASELINES_HERACLES_H
#define CLITE_BASELINES_HERACLES_H

#include "core/controller.h"

namespace clite {
namespace baselines {

/** Heracles tuning knobs. */
struct HeraclesOptions
{
    int max_samples = 60; ///< Adjustment budget.
};

/**
 * The Heracles policy (1-LC/N-BG).
 */
class HeraclesController : public core::Controller
{
  public:
    explicit HeraclesController(HeraclesOptions options = {});

    std::string name() const override { return "heracles"; }

    /**
     * The primary LC job is the first latency-critical job in the
     * server's job list; all others are best-effort.
     */
    core::ControllerResult run(platform::SimulatedServer& server) override;

  private:
    HeraclesOptions options_;
};

} // namespace baselines
} // namespace clite

#endif // CLITE_BASELINES_HERACLES_H
