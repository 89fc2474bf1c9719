/**
 * @file
 * Cluster-level job placement (the fleet half of the CLITE split).
 *
 * CLITE's per-node controller answers "how should THIS node's
 * resources be partitioned among its jobs"; the cluster scheduler
 * answers the question one level up: "which node should this job run
 * on". Following the SLO-aware colocation line of work (Janus &
 * Rzadca; the per-node-QoS-controller + fleet-scheduler split of
 * predictable cluster serving), placement uses only cheap fleet-level
 * signals — no per-node search is run to place a job:
 *
 *  - **Best-fit on predicted headroom.** Each node carries a small GP
 *    surrogate trained online on (occupancy features → observed Eq. 3
 *    score) pairs from its monitoring windows. A candidate placement
 *    is scored by predicting the node's score with the job added;
 *    the job goes to the node predicted to retain the most headroom.
 *    Fixed hyper-parameters keep the prediction deterministic and
 *    O(history²) cheap.
 *  - **Least-loaded fallback.** Until a node's surrogate has enough
 *    windows to predict (min_model_samples), or when no candidate
 *    node has a trained surrogate, placement falls back to the least
 *    LC-loaded feasible node (ties: fewest jobs, then lowest index).
 *  - **Round-robin** is kept as an ablation baseline.
 *
 * Feasibility is never compromised: a node whose unit budget cannot
 * give one more job a unit of every resource (the Allocation
 * invariant) is not a candidate, whatever the policy says.
 */

#ifndef CLITE_CLUSTER_SCHEDULER_H
#define CLITE_CLUSTER_SCHEDULER_H

#include <memory>
#include <string>
#include <vector>

#include "gp/gaussian_process.h"
#include "workloads/profile.h"

namespace clite {
namespace cluster {

/** Node-choice policies for admission and rescheduling. */
enum class PlacementPolicy {
    BestFitHeadroom, ///< Max GP-predicted post-placement score.
    LeastLoaded,     ///< Min LC load sum (ties: jobs, then index).
    RoundRobin,      ///< Rotate over feasible nodes (ablation).
};

/** Printable policy name ("best-fit-headroom", ...). */
const char* placementPolicyName(PlacementPolicy policy);

/** Placement knobs. */
struct PlacementOptions
{
    PlacementPolicy policy = PlacementPolicy::BestFitHeadroom;
    /** Monitoring windows a node's surrogate needs before it may
     *  predict; below this the least-loaded fallback is used. */
    int min_model_samples = 4;
    /** Per-node training-history cap (oldest windows are dropped). */
    int max_model_samples = 64;
};

/**
 * What the scheduler may know about one node when placing: cheap,
 * instantaneous occupancy signals plus the last monitoring window's
 * outcome. Snapshots are value types so placement decisions are
 * testable without a live fleet.
 */
struct NodeSnapshot
{
    size_t node = 0;        ///< Node index in the fleet.
    size_t job_count = 0;   ///< Co-located jobs right now.
    size_t lc_jobs = 0;     ///< Of which latency-critical.
    size_t bg_jobs = 0;     ///< Of which background.
    double lc_load_sum = 0; ///< Sum of LC jobs' load fractions.
    /** Max co-locatable jobs (min over resources of unit count). */
    size_t capacity = 0;
    double last_score = 0.0; ///< Last observed Eq. 3 score.
    bool all_qos_met = false;///< Last window's QoS state.

    /** True when one more job still fits the unit budget. */
    bool canHost() const { return job_count < capacity; }

    /** Snapshot of this node with @p spec hypothetically added. */
    NodeSnapshot withJob(const workloads::JobSpec& spec) const;
};

/**
 * Per-node online surrogate of "occupancy → achievable score".
 *
 * Each node owns an independent GP over a 3-feature description of
 * its occupancy (job count, LC load sum, BG fraction). observe()
 * feeds one monitoring window; predictScore() evaluates a
 * hypothetical occupancy. Hyper-parameters are fixed (no refit RNG),
 * so the model is a pure function of the observation sequence —
 * the determinism the lockstep fleet tick relies on.
 */
class HeadroomModel
{
  public:
    explicit HeadroomModel(PlacementOptions options = {});

    /** Record one monitoring window of @p snapshot's node. */
    void observe(const NodeSnapshot& snapshot);

    /** True when @p node has >= min_model_samples windows recorded. */
    bool ready(size_t node) const;

    /**
     * Predicted Eq. 3 score of @p hypothetical's node at that
     * occupancy (posterior mean).
     * @pre ready(hypothetical.node)
     */
    double predictScore(const NodeSnapshot& hypothetical) const;

    /** Windows recorded for @p node so far. */
    size_t sampleCount(size_t node) const;

  private:
    struct NodeModel
    {
        std::vector<linalg::Vector> x; ///< Feature history (ring).
        std::vector<double> y;         ///< Observed scores.
        std::unique_ptr<gp::GaussianProcess> gp;
        bool stale = true; ///< History changed since the last fit.
    };

    /** The 3-feature encoding of a snapshot. */
    static linalg::Vector features(const NodeSnapshot& snapshot);

    NodeModel& nodeModel(size_t node);

    PlacementOptions options_;
    mutable std::vector<NodeModel> models_;
};

/**
 * The fleet-level placement engine. Stateless per decision apart from
 * the headroom surrogates (fed by the fleet each window) and the
 * round-robin cursor.
 */
class ClusterScheduler
{
  public:
    explicit ClusterScheduler(PlacementOptions options = {});

    /** The options in effect. */
    const PlacementOptions& options() const { return options_; }

    /**
     * Choose a node for @p spec among @p nodes.
     *
     * @param spec The job to place.
     * @param nodes Snapshots of every node (any order; the snapshot's
     *     own node field is returned).
     * @param exclude Node to avoid if any alternative exists (the
     *     source node of a rescheduled job; -1 for none).
     * @return The chosen node index, or -1 when no node can host.
     */
    int place(const workloads::JobSpec& spec,
              const std::vector<NodeSnapshot>& nodes, int exclude = -1);

    /** Feed one fleet window's snapshots to the headroom surrogates. */
    void recordWindow(const std::vector<NodeSnapshot>& nodes);

    /**
     * Feed a single node's window to its headroom surrogate, as the
     * fleet engine does for each settled commit. Empty nodes are
     * ignored, as in recordWindow.
     */
    void recordNode(const NodeSnapshot& node);

    /** The headroom surrogate bank (for tests / introspection). */
    const HeadroomModel& model() const { return model_; }

  private:
    PlacementOptions options_;
    HeadroomModel model_;
    size_t rr_cursor_ = 0;
};

} // namespace cluster
} // namespace clite

#endif // CLITE_CLUSTER_SCHEDULER_H
