/**
 * @file
 * Cluster-level job placement (the fleet half of the CLITE split).
 *
 * CLITE's per-node controller answers "how should THIS node's
 * resources be partitioned among its jobs"; the cluster scheduler
 * answers the question one level up: "which node should this job run
 * on". Following the SLO-aware colocation line of work (Janus &
 * Rzadca place from observed occupancy with a simple statistical
 * rule), placement reads only a node's occupancy — no per-node search
 * runs to place a job, and no score, measured or true, steers it.
 *
 * There is one rule, **least-loaded**: the job goes to the node with
 * the lowest LC load sum; ties go to the node with fewer jobs, then
 * to the lower index. It is the baseline a learned placement policy
 * has to beat before it earns a place here.
 *
 * Feasibility is never compromised: a node whose unit budget cannot
 * give one more job a unit of every resource (the Allocation
 * invariant) is not a candidate.
 */

#ifndef CLITE_CLUSTER_SCHEDULER_H
#define CLITE_CLUSTER_SCHEDULER_H

#include <vector>

#include "workloads/profile.h"

namespace clite {
namespace cluster {

/**
 * What the scheduler may know about one node when placing: cheap,
 * instantaneous occupancy signals. Snapshots are value types so
 * placement decisions are testable without a live fleet.
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
    /** Last observed Eq. 3 score and QoS state. Placement never reads
     *  them and the fleet leaves them unset; they remain only because
     *  the end-to-end benchmark (bench/e2e) still sets them. */
    double last_score = 0.0;
    bool all_qos_met = false;

    /** True when one more job still fits the unit budget. */
    bool canHost() const { return job_count < capacity; }
};

/** The fleet-level placement rule. Stateless. */
class ClusterScheduler
{
  public:
    /**
     * Choose the least-loaded node that can host one more job.
     *
     * @param spec The job to place (the rule does not depend on it).
     * @param nodes Snapshots of every node (any order; the snapshot's
     *     own node field is returned).
     * @param exclude Node to avoid if any alternative exists (the
     *     source node of a rescheduled job; -1 for none).
     * @return The chosen node index, or -1 when no node can host.
     */
    int place(const workloads::JobSpec& spec,
              const std::vector<NodeSnapshot>& nodes,
              int exclude = -1) const;

    /** Does nothing: placement learns nothing from observed windows.
     *  It remains only because bench/e2e still calls it. */
    void recordWindow(const std::vector<NodeSnapshot>&) const {}
};

} // namespace cluster
} // namespace clite

#endif // CLITE_CLUSTER_SCHEDULER_H
