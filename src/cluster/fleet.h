/**
 * @file
 * A fleet of CLITE nodes with QoS-aware admission and rescheduling.
 *
 * Fleet scales the reproduction from one server to a cluster: N
 * SimulatedServers, each wrapped in its own OnlineManager (the
 * steady-state per-node control loop). The fleet owns the job
 * registry, placement, eviction and the shared warm-start store;
 * AsyncFleetEngine (cluster/manager.h) schedules the node windows.
 * tick() is one engine epoch on the lockstep schedule:
 *
 *  1. **Admission.** Queued jobs — new arrivals and evicted jobs
 *     awaiting rescheduling — are placed onto nodes by the
 *     ClusterScheduler (least-loaded: lowest LC load sum, then fewest
 *     jobs, then lowest index). A job that fits nowhere stays queued;
 *     nothing is ever dropped.
 *  2. **Node windows.** Every occupied node runs one OnlineManager
 *     step (the initial search for fresh nodes, one monitoring tick
 *     otherwise) on the global thread pool. Node i's step touches
 *     only node i's state, so the window is bit-identical at any
 *     thread count.
 *  3. **Rescheduling.** The windows settle as one batch, in node
 *     order. A node whose search proved an LC job cannot be
 *     co-located there (QoS missed even at the maximum-allocation
 *     extremum — the paper's "schedule it elsewhere" signal, now
 *     acted on) evicts that job. The evicted job is placed onto the
 *     least-loaded other node with room; both source and destination
 *     adapt through incumbent-seeded re-optimizations at their next
 *     window (an empty destination runs its first window in the same
 *     tick). A job evicted more than max_moves times (or
 *     infeasible even alone on a node) is parked: it stays in the
 *     registry, reported as unplaceable, rather than ping-ponging
 *     through the fleet.
 *
 * Fleet-level metrics (QoS-met fraction over admitted LC jobs, mean BG
 * normalized throughput over admitted BG jobs; a pending or parked job
 * counts as a miss or as 0) are ground-truth values, each node
 * incumbent's stationary closed form (observeNoiseless), aggregated with
 * stats::RunningStats. They are reported only: no decision reads
 * ground truth.
 */

#ifndef CLITE_CLUSTER_FLEET_H
#define CLITE_CLUSTER_FLEET_H

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cluster/scheduler.h"
#include "core/monitor.h"
#include "harness/schemes.h"
#include "stats/summary.h"

namespace clite {
namespace cluster {

class AsyncFleetEngine;

/** Fleet construction and behaviour knobs. */
struct FleetOptions
{
    /** Number of nodes (homogeneous; each the Table 2 testbed). */
    int nodes = 4;
    /** Performance-model backend for every node. */
    harness::ModelBackend backend = harness::ModelBackend::Analytic;
    /** 6-resource config instead of 3. */
    bool all_resources = false;
    /** Per-node measurement noise. */
    double noise_sigma = 0.03;
    /** Fleet seed; per-node noise/controller seeds derive from it. */
    uint64_t seed = 1;
    /** Per-node CLITE knobs (budgets; seed is overridden per node). */
    core::CliteOptions clite;
    /**
     * DES event budget for node SEARCH probe windows (coarse mode,
     * docs/MODEL.md): with the DES backend every node's bootstrap,
     * BO and polish windows measure under the budget while
     * validation and monitoring windows stay fine-mode, cutting the
     * per-search event bill at fleet scale. Applied only when
     * backend == Des (the analytic backend has no event bill);
     * overrides clite.search_event_budget on every node. Set 0 to
     * run every window fine-mode. The default is the 25% p95
     * accuracy band operating point pinned by
     * tests/sim/queueing_budget_test.cpp.
     */
    uint64_t search_event_budget = 2000;
    /** Per-node monitoring knobs. */
    core::MonitorOptions monitor;
    /** Evictions a job may suffer before it is parked. */
    int max_moves = 3;
    /**
     * Share one warm-start profile store across all nodes: every
     * node's search seeds from fleet-wide prior knowledge of its job
     * mix (an evicted job's destination node warm-starts from the
     * checkpoints its mix accumulated anywhere in the fleet). Store
     * writes happen only when the engine settles a commit, on its own
     * thread and in node order within a batch, so determinism across
     * thread counts is preserved.
     */
    bool shared_store = true;
};

/** Where a job currently is. */
enum class JobState {
    Pending, ///< Awaiting placement (queued).
    Placed,  ///< Running on a node.
    Parked,  ///< Unplaceable (move limit or infeasible alone).
};

/** Printable state name ("pending", "placed", "parked"). */
const char* jobStateName(JobState state);

/** One job's cluster-level record. */
struct FleetJob
{
    uint64_t id = 0;            ///< Fleet-wide id (1-based, dense).
    workloads::JobSpec spec;    ///< What the job is.
    JobState state = JobState::Pending;
    int node = -1;              ///< Hosting node (Placed only).
    int moves = 0;              ///< Evictions suffered so far.
};

/** Outcome of one fleet window. */
struct FleetWindow
{
    int window = 0;          ///< 1-based window number.
    int placed = 0;          ///< Jobs placed this window.
    int evicted = 0;         ///< Jobs evicted for rescheduling.
    int rescheduled = 0;     ///< Evicted jobs re-placed this window.
    int parked = 0;          ///< Jobs parked this window.
    int reoptimizations = 0; ///< Node searches run this window.
    int pending = 0;         ///< Queue depth after the window.
    /** Ground-truth fraction of admitted LC jobs meeting QoS; a
     *  pending or parked LC job is a miss (1 when none admitted). */
    double qos_met_fraction = 1.0;
    /** Ground-truth mean BG normalized performance over admitted BG
     *  jobs; a pending or parked one adds 0 (0 when none admitted). */
    double mean_bg_perf = 0.0;
    /** Placed jobs at the end of the window. */
    int placed_total = 0;
};

/** Aggregates over a run (reusing stats/summary). */
struct FleetSummary
{
    int windows = 0;             ///< Windows ticked.
    int jobs_admitted = 0;       ///< Jobs ever admitted.
    int jobs_placed = 0;         ///< Currently placed.
    int jobs_pending = 0;        ///< Currently queued.
    int jobs_parked = 0;         ///< Currently parked.
    int evictions = 0;           ///< Total evictions.
    /** Total node searches after init, under either schedule. */
    int reoptimizations = 0;
    stats::RunningStats qos_met_fraction; ///< Per-window QoS fraction.
    stats::RunningStats bg_perf;          ///< Per-window mean BG perf.
};

/**
 * The multi-node co-location fleet.
 */
class Fleet
{
  public:
    explicit Fleet(FleetOptions options = {});

    /** Number of nodes. */
    size_t nodeCount() const { return nodes_.size(); }

    /** The options in effect. */
    const FleetOptions& options() const { return options_; }

    /**
     * Submit a job to the cluster. It is queued and placed at the
     * next tick()'s admission phase.
     * @return The job's fleet-wide id.
     */
    uint64_t admit(const workloads::JobSpec& spec);

    /**
     * Advance the whole fleet by one lockstep observation window: one
     * AsyncFleetEngine epoch with a worker per node, equal task
     * durations and no faults or hedges.
     */
    FleetWindow tick();

    /**
     * Change a placed job's offered load (diurnal drift). The hosting
     * node's manager reacts through its load-drift trigger at its
     * next window.
     * @pre job(id).state == JobState::Placed
     */
    void setJobLoad(uint64_t id, double load_fraction);

    /** All job records (index = id - 1). */
    const std::vector<FleetJob>& jobs() const { return jobs_; }

    /** One job's record. @throws clite::Error for an unknown id. */
    const FleetJob& job(uint64_t id) const;

    /** Ids hosted by node @p n, in server job-index order. */
    const std::vector<uint64_t>& nodeJobIds(size_t n) const;

    /** Node @p n's server (nullptr while the node is empty). */
    const platform::SimulatedServer* nodeServer(size_t n) const;

    /** Node @p n's manager (nullptr while the node is empty). */
    const core::OnlineManager* nodeManager(size_t n) const;

    /** Windows ticked so far. */
    int windows() const { return windows_; }

    /** Per-window metrics history. */
    const std::vector<FleetWindow>& history() const { return history_; }

    /** Aggregate the run so far. */
    FleetSummary summarize() const;

    /** The fleet-wide warm-start store (inert when !shared_store). */
    const store::ProfileStore& profileStore() const { return store_; }
    store::ProfileStore& profileStore() { return store_; }

    /**
     * Deterministic fingerprint of the full fleet state: per-node job
     * placements, programmed allocations and ground-truth scores plus
     * the queue and parked lists. Two runs with equal digests made
     * bit-identical decisions — the serial-vs-parallel equality
     * tests compare exactly this.
     */
    std::string digest() const;

  private:
    // The engine drives the node substrate (hostJob/unhostJob/stepNode/
    // placeQueued/rescheduleNode) and keeps the fleet's counters.
    friend class AsyncFleetEngine;

    struct Node
    {
        std::unique_ptr<platform::SimulatedServer> server;
        std::unique_ptr<core::OnlineManager> manager;
        std::vector<uint64_t> job_ids; ///< Parallel to server indices.
        bool initialized = false;
        /** Did this window run a search (initialize or reoptimize)? */
        bool searched = false;
        /** Did this window re-optimize (post-initialization search)? */
        bool reoptimized = false;
        /**
         * Ground-truth observations of the incumbent at the node's last
         * window, parallel to a prefix of job_ids: a job hosted since
         * then has no entry yet, and unhostJob() drops a leaving job's.
         */
        std::vector<platform::JobObservation> truth;
        double truth_score = 0.0;
        bool truth_qos = false;
    };

    /** Per-node deterministic seed. */
    uint64_t nodeSeed(size_t n) const;

    /** Snapshot of node @p n for the scheduler. */
    NodeSnapshot snapshot(size_t n) const;

    /**
     * Place job @p id if possible. @return True when placed.
     * @param avoid Optional per-node mask; true entries are not
     *     candidates (the async engine's quarantine filter).
     */
    bool tryPlace(uint64_t id, int exclude,
                  const std::vector<char>* avoid = nullptr);

    /**
     * One admission pass over the queue: every pending job gets one
     * placement attempt; a job that fits nowhere returns to the tail.
     * @return Jobs placed.
     */
    int placeQueued(const std::vector<char>* avoid = nullptr);

    /** Put @p id onto node @p n (creates the node when empty). */
    void hostJob(uint64_t id, size_t n);

    /** Remove server index @p idx from node @p n (may empty it). */
    void unhostJob(size_t n, size_t idx);

    /** Run occupied node @p n's window (called from the pool). */
    void stepNode(size_t n);

    /**
     * Act on node @p n's infeasibility signal: evict the reported
     * jobs, re-place or park them, accumulating counters into @p w.
     * No-op unless reportsInfeasible(n).
     */
    void rescheduleNode(size_t n, FleetWindow& w,
                        const std::vector<char>* avoid = nullptr);

    /** Did node @p n search this window and report infeasible jobs? */
    bool reportsInfeasible(size_t n) const;

    FleetOptions options_;
    platform::ServerConfig config_;
    size_t node_capacity_ = 0; ///< Max jobs per node (unit budget).

    ClusterScheduler scheduler_; ///< The placement rule.
    store::ProfileStore store_; ///< Fleet-shared warm-start priors.
    std::vector<Node> nodes_;
    std::vector<FleetJob> jobs_;
    std::deque<uint64_t> queue_; ///< Pending ids, FIFO.

    int windows_ = 0;
    int evictions_ = 0;
    int reoptimizations_ = 0;
    /**
     * Largest offered QPS the per-thread measurement scratch has been
     * pre-warmed for (DES backend): hostJob() broadcasts a prewarm to
     * every pool worker only when a new job's rate exceeds this
     * high-water mark, so the broadcasts are few and the first window
     * of every node runs allocation-free.
     */
    double prewarmed_qps_ = 0.0;
    std::vector<FleetWindow> history_;
};

} // namespace cluster
} // namespace clite

#endif // CLITE_CLUSTER_FLEET_H
