#include "cluster/scheduler.h"

#include <algorithm>

#include "common/error.h"
#include "gp/kernel.h"

namespace clite {
namespace cluster {

const char*
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::BestFitHeadroom:
        return "best-fit-headroom";
      case PlacementPolicy::LeastLoaded:
        return "least-loaded";
      case PlacementPolicy::RoundRobin:
        return "round-robin";
    }
    return "unknown";
}

NodeSnapshot
NodeSnapshot::withJob(const workloads::JobSpec& spec) const
{
    NodeSnapshot s = *this;
    ++s.job_count;
    if (spec.isLatencyCritical()) {
        ++s.lc_jobs;
        s.lc_load_sum += spec.load_fraction;
    } else {
        ++s.bg_jobs;
    }
    return s;
}

HeadroomModel::HeadroomModel(PlacementOptions options)
    : options_(options)
{
    CLITE_CHECK(options_.min_model_samples >= 1,
                "min_model_samples must be >= 1");
    CLITE_CHECK(options_.min_model_samples <= kMaxModelSamples,
                "min_model_samples must be <= " << kMaxModelSamples);
}

linalg::Vector
HeadroomModel::features(const NodeSnapshot& snapshot)
{
    // Normalized to roughly [0, 1] so the fixed length-scale fits:
    // occupancy relative to capacity, total LC load (a 10-core node
    // saturates well below load sum ~3), and the LC/BG mix.
    double cap = double(std::max<size_t>(snapshot.capacity, 1));
    return {double(snapshot.job_count) / cap,
            snapshot.lc_load_sum / 3.0,
            snapshot.job_count > 0
                ? double(snapshot.bg_jobs) / double(snapshot.job_count)
                : 0.0};
}

HeadroomModel::NodeModel&
HeadroomModel::nodeModel(size_t node)
{
    if (models_.size() <= node)
        models_.resize(node + 1);
    return models_[node];
}

void
HeadroomModel::observe(const NodeSnapshot& snapshot)
{
    NodeModel& m = nodeModel(snapshot.node);
    m.x.push_back(features(snapshot));
    m.y.push_back(snapshot.last_score);
    if (int(m.x.size()) > kMaxModelSamples) {
        m.x.erase(m.x.begin());
        m.y.erase(m.y.begin());
    }
    m.stale = true;
}

bool
HeadroomModel::ready(size_t node) const
{
    return node < models_.size() &&
           int(models_[node].x.size()) >= options_.min_model_samples;
}

size_t
HeadroomModel::sampleCount(size_t node) const
{
    return node < models_.size() ? models_[node].x.size() : 0;
}

double
HeadroomModel::predictScore(const NodeSnapshot& hypothetical) const
{
    CLITE_CHECK(ready(hypothetical.node),
                "node " << hypothetical.node
                        << " has too few windows for headroom "
                           "prediction");
    NodeModel& m = models_[hypothetical.node];
    if (m.stale || m.gp == nullptr) {
        if (m.gp == nullptr) {
            // Fixed hyper-parameters: scores live in [0, 1] and the
            // features are roughly unit-scaled, so a medium RBF
            // length-scale generalizes without a likelihood fit —
            // keeping the prediction a deterministic pure function of
            // the observation sequence.
            std::unique_ptr<gp::Kernel> kernel =
                gp::makeKernel("rbf", 3, 0.5);
            kernel->setIsotropic(true);
            m.gp = std::make_unique<gp::GaussianProcess>(
                std::move(kernel), 1e-3);
        }
        // fitIncremental recognizes the common pure-append history and
        // extends in O(n²); a ring-buffer eviction falls back to a
        // full refit.
        m.gp->fitIncremental(m.x, m.y);
        m.stale = false;
    }
    return m.gp->predict(features(hypothetical)).mean;
}

ClusterScheduler::ClusterScheduler(PlacementOptions options)
    : options_(options), model_(options)
{
}

void
ClusterScheduler::recordWindow(const std::vector<NodeSnapshot>& nodes)
{
    for (const NodeSnapshot& s : nodes)
        recordNode(s);
}

void
ClusterScheduler::recordNode(const NodeSnapshot& node)
{
    if (node.job_count > 0)
        model_.observe(node);
}

int
ClusterScheduler::place(const workloads::JobSpec& spec,
                        const std::vector<NodeSnapshot>& nodes, int exclude)
{
    // Candidate set: nodes with unit budget for one more job. The
    // excluded (source) node is only eligible when it is the sole
    // option — better to retry the node that evicted the job than to
    // drop it.
    std::vector<const NodeSnapshot*> candidates;
    for (const NodeSnapshot& s : nodes)
        if (s.canHost() && int(s.node) != exclude)
            candidates.push_back(&s);
    if (candidates.empty()) {
        for (const NodeSnapshot& s : nodes)
            if (s.canHost())
                candidates.push_back(&s);
    }
    if (candidates.empty())
        return -1;

    auto least_loaded = [&]() {
        const NodeSnapshot* best = candidates[0];
        for (const NodeSnapshot* s : candidates) {
            if (s->lc_load_sum < best->lc_load_sum ||
                (s->lc_load_sum == best->lc_load_sum &&
                 (s->job_count < best->job_count ||
                  (s->job_count == best->job_count &&
                   s->node < best->node))))
                best = s;
        }
        return int(best->node);
    };

    switch (options_.policy) {
      case PlacementPolicy::RoundRobin: {
        // Rotate over the feasible nodes in index order.
        std::vector<const NodeSnapshot*> sorted = candidates;
        std::sort(sorted.begin(), sorted.end(),
                  [](const NodeSnapshot* a, const NodeSnapshot* b) {
                      return a->node < b->node;
                  });
        const NodeSnapshot* pick = sorted[rr_cursor_ % sorted.size()];
        ++rr_cursor_;
        return int(pick->node);
      }
      case PlacementPolicy::LeastLoaded:
        return least_loaded();
      case PlacementPolicy::BestFitHeadroom: {
        // Best fit = the node predicted to retain the highest Eq. 3
        // score with the job on board. Nodes without a trained
        // surrogate cannot bid; when none can, fall back to
        // least-loaded (the cold-start path).
        const NodeSnapshot* best = nullptr;
        double best_pred = 0.0;
        for (const NodeSnapshot* s : candidates) {
            if (!model_.ready(s->node))
                continue;
            double pred = model_.predictScore(s->withJob(spec));
            if (best == nullptr || pred > best_pred ||
                (pred == best_pred && s->node < best->node)) {
                best = s;
                best_pred = pred;
            }
        }
        return best != nullptr ? int(best->node) : least_loaded();
      }
    }
    return least_loaded();
}

} // namespace cluster
} // namespace clite
