#include "cluster/fleet.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "cluster/manager.h"
#include "common/arena.h"
#include "common/error.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "core/score.h"
#include "sim/queueing.h"
#include "workloads/perf_model.h"

namespace clite {
namespace cluster {

const char*
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Pending:
        return "pending";
      case JobState::Placed:
        return "placed";
      case JobState::Parked:
        return "parked";
    }
    return "unknown";
}

Fleet::Fleet(FleetOptions options)
    : options_(std::move(options)),
      config_(options_.all_resources
                  ? platform::ServerConfig::xeonSilver4114AllResources()
                  : platform::ServerConfig::xeonSilver4114())
{
    CLITE_CHECK(options_.nodes >= 1, "a fleet needs at least one node");
    CLITE_CHECK(options_.max_moves >= 1, "max_moves must be >= 1");
    node_capacity_ = size_t(config_.resources()[0].units);
    for (const platform::ResourceSpec& r : config_.resources())
        node_capacity_ = std::min(node_capacity_, size_t(r.units));
    nodes_.resize(size_t(options_.nodes));
}

uint64_t
Fleet::nodeSeed(size_t n) const
{
    // Stable per (fleet seed, node index) whatever the order nodes get
    // populated in — placement decisions must not perturb node noise
    // streams.
    SplitMix64 sm(options_.seed ^
                  (0x9E3779B97F4A7C15ull * (uint64_t(n) + 1)));
    return sm.next();
}

uint64_t
Fleet::admit(const workloads::JobSpec& spec)
{
    FleetJob job;
    job.id = uint64_t(jobs_.size()) + 1;
    job.spec = spec;
    jobs_.push_back(std::move(job));
    queue_.push_back(jobs_.back().id);
    return jobs_.back().id;
}

void
Fleet::setJobLoad(uint64_t id, double load_fraction)
{
    CLITE_CHECK(id >= 1 && id <= jobs_.size(),
                "unknown fleet job id " << id);
    FleetJob& job = jobs_[size_t(id) - 1];
    CLITE_CHECK(job.state == JobState::Placed,
                "job " << id << " is " << jobStateName(job.state)
                       << ", not placed");
    Node& node = nodes_[size_t(job.node)];
    size_t idx = 0;
    while (node.job_ids[idx] != id)
        ++idx;
    node.server->setLoad(idx, load_fraction);
    // Keep the registry's spec in step: a later eviction re-places
    // the job at its current load, not its admission load.
    job.spec.load_fraction = load_fraction;
}

const FleetJob&
Fleet::job(uint64_t id) const
{
    CLITE_CHECK(id >= 1 && id <= jobs_.size(),
                "unknown fleet job id " << id);
    return jobs_[size_t(id) - 1];
}

const std::vector<uint64_t>&
Fleet::nodeJobIds(size_t n) const
{
    CLITE_CHECK(n < nodes_.size(), "node index " << n << " out of range");
    return nodes_[n].job_ids;
}

const platform::SimulatedServer*
Fleet::nodeServer(size_t n) const
{
    CLITE_CHECK(n < nodes_.size(), "node index " << n << " out of range");
    return nodes_[n].server.get();
}

const core::OnlineManager*
Fleet::nodeManager(size_t n) const
{
    CLITE_CHECK(n < nodes_.size(), "node index " << n << " out of range");
    return nodes_[n].manager.get();
}

NodeSnapshot
Fleet::snapshot(size_t n) const
{
    const Node& node = nodes_[n];
    NodeSnapshot s;
    s.node = n;
    s.capacity = node_capacity_;
    s.job_count = node.job_ids.size();
    if (node.server != nullptr) {
        for (size_t j = 0; j < node.server->jobCount(); ++j) {
            const workloads::JobSpec& spec = node.server->job(j);
            if (spec.isLatencyCritical()) {
                ++s.lc_jobs;
                s.lc_load_sum += spec.load_fraction;
            } else {
                ++s.bg_jobs;
            }
        }
    }
    return s;
}

bool
Fleet::tryPlace(uint64_t id, int exclude, const std::vector<char>* avoid)
{
    std::vector<NodeSnapshot> snaps;
    snaps.reserve(nodes_.size());
    for (size_t n = 0; n < nodes_.size(); ++n) {
        if (avoid != nullptr && n < avoid->size() && (*avoid)[n])
            continue; // quarantined nodes never bid
        snaps.push_back(snapshot(n));
    }
    int n = scheduler_.place(jobs_[size_t(id) - 1].spec, snaps, exclude);
    if (n < 0)
        return false;
    hostJob(id, size_t(n));
    return true;
}

int
Fleet::placeQueued(const std::vector<char>* avoid)
{
    int placed = 0;
    size_t pending = queue_.size();
    for (size_t i = 0; i < pending; ++i) {
        uint64_t id = queue_.front();
        queue_.pop_front();
        if (tryPlace(id, -1, avoid))
            ++placed;
        else
            queue_.push_back(id);
    }
    return placed;
}

void
Fleet::hostJob(uint64_t id, size_t n)
{
    Node& node = nodes_[n];
    FleetJob& job = jobs_[size_t(id) - 1];
    if (node.server == nullptr) {
        std::unique_ptr<workloads::PerformanceModel> model;
        if (options_.backend == harness::ModelBackend::Analytic)
            model = std::make_unique<workloads::AnalyticModel>();
        else
            model = std::make_unique<workloads::QueueingSimModel>();
        node.server = std::make_unique<platform::SimulatedServer>(
            config_, std::vector<workloads::JobSpec>{job.spec},
            std::move(model), nodeSeed(n), options_.noise_sigma);
        core::CliteOptions clite_options = options_.clite;
        clite_options.seed = SplitMix64(nodeSeed(n)).next();
        // Coarse search probes are a DES-only economy: the analytic
        // backend has no event bill, and forcing the knob there would
        // change nothing but reads as if it did.
        if (options_.backend == harness::ModelBackend::Des)
            clite_options.search_event_budget =
                options_.search_event_budget;
        core::MonitorOptions monitor_options = options_.monitor;
        store::ProfileStore* store = nullptr;
        if (options_.shared_store) {
            // Node steps READ the shared store; writes happen only
            // when the engine settles a commit, on its own thread, so
            // auto-checkpointing from pool threads is disabled.
            store = &store_;
            monitor_options.auto_checkpoint = false;
        }
        node.manager = std::make_unique<core::OnlineManager>(
            *node.server, std::move(clite_options), monitor_options,
            store);
        node.initialized = false;
        // First-window jitter: node windows execute on pool workers
        // whose thread_local measurement slab and GP scratch arena
        // start empty, so a node's first search would pay every
        // growth reallocation inside its hottest loops. Pre-warm all
        // workers (and this thread) once per offered-rate high-water
        // mark — a handful of broadcasts across a whole fleet.
        if (options_.backend == harness::ModelBackend::Des &&
            job.spec.isLatencyCritical() &&
            job.spec.offeredQps() > prewarmed_qps_) {
            prewarmed_qps_ = job.spec.offeredQps();
            const double qps = prewarmed_qps_;
            const int cores = config_.physical_cores;
            globalPool().broadcast([qps, cores] {
                // ~2 s observation window (QueueingSimModel default);
                // fine-mode validation windows measure the full span.
                sim::prewarmMeasurementScratch(
                    cores, size_t(qps * 2.0) + 64);
                ScratchArena::forCurrentThread().reserve(64 * 1024);
            });
        }
    } else {
        node.server->addJob(job.spec);
        // A pre-initialization add needs no notification: the initial
        // search covers the full mix (and must not read as a
        // mix-change trigger at the first tick).
        if (node.initialized)
            node.manager->notifyMixChange();
    }
    node.job_ids.push_back(id);
    job.state = JobState::Placed;
    job.node = int(n);
}

void
Fleet::unhostJob(size_t n, size_t idx)
{
    Node& node = nodes_[n];
    CLITE_CHECK(idx < node.job_ids.size(),
                "job index " << idx << " out of range on node " << n);
    if (node.job_ids.size() == 1) {
        // The server requires >= 1 job; an emptied node tears down its
        // server and manager and is lazily re-created on the next
        // placement.
        node.manager.reset();
        node.server.reset();
        node.job_ids.clear();
        node.initialized = false;
        node.truth.clear();
        node.truth_score = 0.0;
        node.truth_qos = false;
        return;
    }
    node.server->removeJob(idx);
    if (node.initialized)
        node.manager->notifyJobRemoved(idx);
    node.job_ids.erase(node.job_ids.begin() + std::ptrdiff_t(idx));
    // The job's truth entry leaves with it: fleet QoS never counts a
    // job on a node it has left.
    if (idx < node.truth.size())
        node.truth.erase(node.truth.begin() + std::ptrdiff_t(idx));
}

void
Fleet::stepNode(size_t n)
{
    Node& node = nodes_[n];
    node.searched = false;
    node.reoptimized = false;
    if (!node.initialized) {
        node.manager->initialize();
        node.initialized = true;
        node.searched = true;
    } else {
        core::OnlineManager::Tick t = node.manager->tick();
        node.searched = t.reoptimized;
        node.reoptimized = t.reoptimized;
    }
    // Ground-truth view of the incumbent, noise-free. It feeds the
    // fleet's QoS metrics and digest only: no decision reads it.
    node.truth = node.server->observeNoiseless(node.manager->incumbent());
    core::ScoreBreakdown sb = core::scoreObservations(node.truth);
    node.truth_score = sb.score;
    node.truth_qos = sb.all_qos_met;
}

bool
Fleet::reportsInfeasible(size_t n) const
{
    const Node& node = nodes_[n];
    if (!node.searched || node.server == nullptr)
        return false;
    const core::ControllerResult& r = node.manager->lastResult();
    return r.infeasible_detected && !r.infeasible_jobs.empty();
}

void
Fleet::rescheduleNode(size_t n, FleetWindow& w,
                      const std::vector<char>* avoid)
{
    if (!reportsInfeasible(n))
        return;
    Node& node = nodes_[n];
    // Descending index order keeps the remaining reported indices
    // valid as rows shift down.
    std::vector<size_t> evict = node.manager->lastResult().infeasible_jobs;
    std::sort(evict.begin(), evict.end(), std::greater<size_t>());
    for (size_t idx : evict) {
        if (idx >= node.job_ids.size())
            continue;
        uint64_t id = node.job_ids[idx];
        FleetJob& job = jobs_[size_t(id) - 1];
        bool alone = node.job_ids.size() == 1;
        unhostJob(n, idx);
        ++evictions_;
        ++w.evicted;
        ++job.moves;
        job.state = JobState::Pending;
        job.node = -1;
        if (alone || job.moves > options_.max_moves) {
            // Infeasible with the whole machine to itself — no node
            // can serve it — or it has ping-ponged past the move
            // budget. Park it (still tracked, reported unplaceable)
            // instead of thrashing the fleet.
            job.state = JobState::Parked;
            ++w.parked;
            CLITE_LOG_WARN("fleet: parking job "
                           << id << " (" << job.spec.label() << "): "
                           << (alone ? "infeasible even alone"
                                     : "move budget exhausted"));
        } else if (tryPlace(id, int(n), avoid)) {
            ++w.rescheduled;
        } else {
            queue_.push_back(id);
        }
    }
}

FleetWindow
Fleet::tick()
{
    // One epoch of the engine on the lockstep schedule: a worker per
    // node, equal task durations and no hedges, so every occupied
    // node's window completes at the same virtual time and settles as
    // one batch, in node order.
    AsyncOptions lockstep;
    lockstep.workers = int(nodes_.size());
    lockstep.task_jitter = 0.0;
    lockstep.straggler_prob = 0.0;
    lockstep.hedging = false;
    AsyncFleetEngine engine(*this, lockstep);
    engine.lockstep_ = true;
    engine.run(1);

    FleetWindow w = engine.window_;
    w.window = ++windows_;
    w.pending = int(queue_.size());
    for (const FleetJob& job : jobs_)
        if (job.state == JobState::Placed)
            ++w.placed_total;
    history_.push_back(w);
    return w;
}

FleetSummary
Fleet::summarize() const
{
    FleetSummary s;
    s.windows = windows_;
    s.jobs_admitted = int(jobs_.size());
    for (const FleetJob& job : jobs_) {
        if (job.state == JobState::Placed)
            ++s.jobs_placed;
        else if (job.state == JobState::Pending)
            ++s.jobs_pending;
        else
            ++s.jobs_parked;
    }
    s.evictions = evictions_;
    s.reoptimizations = reoptimizations_;
    for (const FleetWindow& w : history_) {
        s.qos_met_fraction.add(w.qos_met_fraction);
        s.bg_perf.add(w.mean_bg_perf);
    }
    return s;
}

std::string
Fleet::digest() const
{
    std::ostringstream out;
    char buf[64];
    for (size_t n = 0; n < nodes_.size(); ++n) {
        const Node& node = nodes_[n];
        out << "n" << n << "{";
        if (node.server == nullptr) {
            out << "empty";
        } else {
            for (size_t i = 0; i < node.job_ids.size(); ++i)
                out << (i ? "," : "") << node.job_ids[i];
            out << "|" << node.server->currentAllocation().key();
            std::snprintf(buf, sizeof(buf), "%.17g", node.truth_score);
            out << "|" << buf << (node.truth_qos ? "+" : "-");
        }
        out << "} ";
    }
    out << "queue[";
    for (size_t i = 0; i < queue_.size(); ++i)
        out << (i ? "," : "") << queue_[i];
    out << "] parked[";
    bool first = true;
    for (const FleetJob& job : jobs_)
        if (job.state == JobState::Parked) {
            out << (first ? "" : ",") << job.id;
            first = false;
        }
    out << "]";
    return out.str();
}

} // namespace cluster
} // namespace clite
