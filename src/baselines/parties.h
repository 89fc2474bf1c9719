/**
 * @file
 * PARTIES baseline (Chen, Delimitrou & Martínez, ASPLOS 2019), the
 * coordinate-descent comparison point of the paper (Sec. 5.1).
 *
 * PARTIES monitors each latency-critical job's QoS slack and makes
 * incremental single-resource adjustments through a per-job finite
 * state machine:
 *
 *  - If a job violates QoS, "upsize" it: move one unit of the FSM's
 *    current resource to it from the job with the most slack (or a
 *    background job). If the adjustment does not improve the victim's
 *    latency, the FSM advances to the next resource.
 *  - If every job has ample slack, "downsize" the slackest job and
 *    donate the unit to the background jobs.
 *
 * PARTIES stops as soon as QoS is met and stable — it does not
 * optimize BG performance further (the paper's main criticism), and
 * its trial-and-error exploration can get stuck cycling through its
 * FSM without finding feasible configurations that joint
 * multi-resource moves would reach (Fig. 9b).
 */

#ifndef CLITE_BASELINES_PARTIES_H
#define CLITE_BASELINES_PARTIES_H

#include <cstdint>

#include "core/controller.h"

namespace clite {
namespace baselines {

/** PARTIES tuning knobs. */
struct PartiesOptions
{
    int max_samples = 100; ///< Adjustment budget (Fig. 9b uses 100).
    uint64_t seed = 11;    ///< Tie-break randomness.
};

/**
 * The PARTIES policy.
 */
class PartiesController : public core::Controller
{
  public:
    explicit PartiesController(PartiesOptions options = {});

    std::string name() const override { return "parties"; }

    core::ControllerResult run(platform::SimulatedServer& server) override;

  private:
    PartiesOptions options_;
};

} // namespace baselines
} // namespace clite

#endif // CLITE_BASELINES_PARTIES_H
