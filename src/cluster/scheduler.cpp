#include "cluster/scheduler.h"

namespace clite {
namespace cluster {

namespace {

/** The least-loaded order: LC load sum, then job count, then index. */
bool
lighter(const NodeSnapshot& a, const NodeSnapshot& b)
{
    if (a.lc_load_sum != b.lc_load_sum)
        return a.lc_load_sum < b.lc_load_sum;
    if (a.job_count != b.job_count)
        return a.job_count < b.job_count;
    return a.node < b.node;
}

} // namespace

int
ClusterScheduler::place(const workloads::JobSpec&,
                        const std::vector<NodeSnapshot>& nodes,
                        int exclude) const
{
    // The excluded (source) node is only eligible when it is the sole
    // node with room — better to retry the node that evicted the job
    // than to drop it.
    const NodeSnapshot* best = nullptr;
    const NodeSnapshot* source = nullptr;
    for (const NodeSnapshot& s : nodes) {
        if (!s.canHost())
            continue;
        if (int(s.node) == exclude)
            source = &s;
        else if (best == nullptr || lighter(s, *best))
            best = &s;
    }
    if (best == nullptr)
        best = source;
    return best != nullptr ? int(best->node) : -1;
}

} // namespace cluster
} // namespace clite
