/**
 * @file
 * The fleet engine: a manager-worker discrete-event loop over a Fleet.
 *
 * AsyncFleetEngine is the one engine that advances fleet nodes, built
 * on the manager-worker architecture of cctools Work Queue:
 *
 *  - The **manager** (this class) owns the job registry, the
 *    ClusterScheduler, and a TaskQueue of serialized per-node window
 *    tasks. It reacts to completions as they arrive — nodes advance
 *    independently; node 3 can be on window 12 while node 7, stuck
 *    behind a straggling worker, is still on window 5.
 *  - **Workers** (WorkerPool slots) pull tasks and run each node's
 *    observe→fit→acquire step, streaming results back as completion
 *    events.
 *
 * Completions that share a virtual time settle as one batch: each
 * commits on its own; then, in node order, the batch's nodes publish
 * checkpoints, then evict infeasible jobs; queued jobs are placed and
 * idle nodes activated last. Jittered async runs never tie, so they
 * settle one commit at a time. Fleet::tick() is one epoch on the
 * lockstep schedule (a worker per node, equal durations, no faults or
 * hedges), which settles as a single batch. A job placed onto an
 * empty node mid-run starts that node's first window in the same run.
 *
 * Failure handling is first-class:
 *
 *  - **Lost-worker recovery.** Every dispatched task carries a lease.
 *    A worker that dies mid-task (injected via platform/faults'
 *    WorkerLoss) never completes it; when the lease expires the
 *    manager resubmits the task, up to max_retries attempts. The job
 *    registry is untouched by any worker death — zero job loss under
 *    churn is a property test, not a hope.
 *  - **Straggler hedging.** A task still running hedge_delay after
 *    dispatch is speculatively re-executed on an idle worker;
 *    whichever attempt finishes first commits the window and the
 *    loser is cancelled (first-result-wins).
 *  - **Node quarantine + graceful degradation.** A node whose windows
 *    fail repeatedly (task failures or exhausted retries) is
 *    quarantined — the fleet-granularity analogue of the telemetry
 *    quarantine inside OnlineManager — and its jobs are rescheduled
 *    through the existing eviction path. When workers get scarce
 *    (alive fraction below degrade_below) the manager degrades to
 *    serving the QoS-critical nodes first: queued windows of BG-only
 *    nodes are shed (counted, never silently) instead of stalling the
 *    critical ones.
 *
 * Real compute is pipelined: when dispatch() hands a window's first
 * healthy attempt to a worker slot, that node's observe→fit→acquire
 * step starts on the global thread pool in the background, and the
 * manager moves on. It waits for a step only where the step's result
 * is read:
 *
 *  - a commit waits for its own node's step;
 *  - anything that touches another node — an eviction, a placement
 *    from a non-empty queue, a quarantine, a lockstep window's fleet
 *    QoS sample — first waits for every step in flight (placement may
 *    add a job to any node, and hostJob's pre-warm broadcast needs an
 *    idle pool);
 *  - run() returns only once every step has been joined.
 *
 * While it waits, the manager runs unclaimed steps itself, oldest
 * first, like any pool worker.
 *
 * Determinism: the engine is a discrete-event simulation over virtual
 * time. Task durations, worker deaths and task failures are pure
 * counter-keyed hashes of the seed; events are ordered by (time,
 * sequence number); and a node step touches only its own node. Two
 * reads are pinned to the manager's event order rather than to when
 * a step happens to run: the warm-start store lookup of a first or
 * mix-change search is made at dispatch, on the manager thread; and
 * each commit's fleet QoS sample covers exactly the steps launched
 * before that commit, finalized once they have all been joined. A run
 * is therefore bit-reproducible given (options, seed, worker count)
 * at ANY CLITE_THREADS setting.
 */

#ifndef CLITE_CLUSTER_MANAGER_H
#define CLITE_CLUSTER_MANAGER_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/task_queue.h"
#include "cluster/worker.h"
#include "platform/faults.h"
#include "stats/summary.h"

namespace clite {
namespace cluster {

/** Engine knobs. Durations are in units of the mean task cost (1). */
struct AsyncOptions
{
    /** Worker slots. */
    int workers = 4;
    /** Uniform relative duration jitter (0.25 = ±25%). */
    double task_jitter = 0.25;
    /** P(a task is a straggler), per assignment. */
    double straggler_prob = 0.02;
    /** Duration multiplier of a straggler. */
    double straggler_factor = 8.0;
    /** Task lease; expiry triggers resubmission. */
    double lease = 6.0;
    /** Resubmissions allowed per window after losses/failures. */
    int max_retries = 3;
    /** Speculatively re-execute tasks still running after this. */
    bool hedging = true;
    /** Hedge trigger: run time after which a task is duplicated. */
    double hedge_delay = 3.0;
    /** Consecutive failed windows before a node is quarantined. */
    int quarantine_failures = 2;
    /** Degrade to critical-only when alive/total falls below this. */
    double degrade_below = 0.5;
    /** Worker-loss / task-failure schedule (other kinds ignored). */
    platform::FaultPlan faults;
    /** Seed of the fault decisions and duration jitter. */
    uint64_t fault_seed = 0xF1EE7ull;
};

/**
 * Per-fleet robustness counters. The satellite telemetry an operator
 * watches: how often the retry, hedge, quarantine and degradation
 * paths actually fired.
 */
struct FleetMetrics
{
    uint64_t tasks_dispatched = 0; ///< Assignments handed to workers.
    uint64_t tasks_committed = 0;  ///< Windows advanced by a result.
    uint64_t tasks_retried = 0;    ///< Resubmissions after loss/failure.
    uint64_t task_failures = 0;    ///< Attempts that failed at the node.
    uint64_t lease_expiries = 0;   ///< Leases that ran out.
    uint64_t workers_lost = 0;     ///< Worker deaths observed.
    uint64_t workers_rejoined = 0; ///< Elastic rejoins after a loss.
    uint64_t hedges_launched = 0;  ///< Speculative duplicates started.
    uint64_t hedges_won = 0;       ///< Windows committed by a hedge.
    uint64_t hedges_cancelled = 0; ///< Hedges beaten by their original.
    uint64_t stale_results = 0;    ///< Completions after the window closed.
    uint64_t windows_failed = 0;   ///< Windows that exhausted retries.
    uint64_t windows_dropped = 0;  ///< Windows shed under degradation.
    uint64_t nodes_quarantined = 0;///< Nodes removed from service.
    uint64_t degraded_dispatches = 0; ///< Dispatch rounds run degraded.
    /**
     * Refit observability, summed over the live node managers at the
     * end of each run() (cumulative since node creation; counters of
     * torn-down nodes are not retained): GP hyper-refits, the probe
     * objective evaluations they consumed, and observation windows
     * measured in coarse (event-budgeted) DES mode. Printed by
     * examples/cluster_sim.
     */
    uint64_t refits = 0;
    uint64_t probe_evals = 0;
    uint64_t coarse_windows = 0;
    /**
     * Percentile-over-time QoS telemetry, summed over live node
     * managers like the refit counters above: fault-free monitoring
     * windows with a QoS verdict, the subset that violated p95, and
     * the re-optimization policy's transient/sustained split.
     */
    uint64_t qos_windows = 0;
    uint64_t violating_windows = 0;
    uint64_t transients_ridden = 0;
    uint64_t sustained_shifts = 0;
    bool stalled = false;          ///< Run ended with zero capacity.
};

/**
 * The manager-worker engine over a Fleet.
 *
 * The engine drives the fleet's node substrate: placement, eviction,
 * the warm-start store and the job registry. Fleet::tick() builds one
 * per tick to run a single lockstep epoch; a long-lived engine runs
 * the async schedule its options describe. Drive a given Fleet
 * through one or the other, not both interleaved: an engine's window
 * counts and quarantine mask never see the other's windows.
 */
class AsyncFleetEngine
{
  public:
    /**
     * @param fleet The fleet to drive (not owned; must outlive).
     * @param options Engine knobs (validated).
     */
    explicit AsyncFleetEngine(Fleet& fleet, AsyncOptions options = {});

    // Node steps running on the pool call back into this object.
    AsyncFleetEngine(const AsyncFleetEngine&) = delete;
    AsyncFleetEngine& operator=(const AsyncFleetEngine&) = delete;

    /**
     * Drive every serviceable node through @p epochs more observation
     * windows. Queued jobs are placed at the start and at every
     * commit; nodes occupied mid-run join the cadence with whatever
     * window budget they have left. Returns when every window is
     * committed, failed, or shed, and every node step has finished.
     * An exception thrown by a node step is rethrown here, on the
     * calling thread, after every other step has finished; the engine
     * and its fleet are not usable afterwards.
     */
    const FleetMetrics& run(int epochs);

    /** The robustness counters so far. */
    const FleetMetrics& metrics() const { return metrics_; }

    /** The options in effect. */
    const AsyncOptions& options() const { return options_; }

    /** Virtual time elapsed. */
    double virtualTime() const { return now_; }

    /** Is node @p n quarantined? */
    bool quarantined(size_t n) const;

    /** Nodes currently quarantined. */
    size_t quarantinedCount() const;

    /** Worker slots not dead. */
    int aliveWorkers() const { return workers_.aliveCount(); }

    /** The worker pool (for tests / introspection). */
    const WorkerPool& workers() const { return workers_; }

    /** Windows committed for node @p n over the engine's lifetime. */
    uint64_t windowsCommitted(size_t n) const;

    /**
     * Ground-truth fraction of admitted LC jobs meeting QoS, from each
     * node's last committed window. A pending or parked LC job, or one
     * whose node has not run a window since it arrived, is a miss
     * (1 when no LC job was admitted).
     */
    double qosMetFraction() const;

    /** Ground-truth mean BG normalized perf over admitted BG jobs, same
     *  source; a BG job not running adds 0 (0 when none admitted). */
    double meanBgPerf() const;

    /** Per-commit QoS-met fraction history, over admitted LC jobs like
     *  qosMetFraction() (for bench aggregation). */
    const stats::RunningStats& qosHistory() const { return qos_history_; }

    /** The fault injector (for tests: injected event log). */
    const platform::FaultInjector& faults() const { return faults_; }

    /**
     * Attempt records held: queued or running attempts only (a record
     * is dropped once it commits, fails, is lost, superseded or shed),
     * so zero between run() calls.
     */
    size_t trackedTasks() const { return tasks_.size(); }

  private:
    // Fleet::tick() runs one epoch and reads back its window.
    friend class Fleet;

    /** One attempt's authoritative record. */
    struct TaskRec
    {
        WindowTask task;
        TaskState state = TaskState::Queued;
        int worker = -1;
        bool doomed = false;  ///< Assigned worker dies during it.
        bool failing = false; ///< Completes but fails at the node.
        bool hedged = false;  ///< A hedge was launched for it.
        uint64_t assignment = 0; ///< Global assignment index (fault key).
        double dispatched_at = 0.0;
    };

    /** Engine-side per-node control state. */
    struct NodeCtl
    {
        uint64_t epoch = 0;        ///< Next window number to serialize.
        uint64_t committed = 0;    ///< Windows committed so far.
        int remaining = 0;         ///< Windows left this run.
        bool in_flight = false;    ///< Current window queued/running.
        bool executed = false;     ///< Current window's step launched.
        uint64_t step = 0;         ///< Its launch number (if executed).
        int attempts_started = 0;  ///< Attempts of the current window.
        int failure_streak = 0;    ///< Consecutive failed windows.
        bool quarantined = false;
        /** A Replenish event is pending (window-cadence pacing). */
        bool replenish_scheduled = false;
        std::vector<uint64_t> live; ///< Commit-eligible attempt ids.
    };

    /** Launched node steps shared with the pool jobs running them. */
    struct StepQueue;

    /** A scheduled engine event. */
    struct Event
    {
        double time = 0.0;
        uint64_t seq = 0; ///< Tie-break: schedule order.
        enum Kind { Complete, Lease, Hedge, Rejoin, Replenish } kind;
        uint64_t task = 0; ///< Task id (Complete/Lease/Hedge).
        int worker = -1;   ///< Worker (Rejoin).
        size_t node = 0;   ///< Node (Replenish).

        bool operator>(const Event& o) const
        {
            return time != o.time ? time > o.time : seq > o.seq;
        }
    };

    /** Uniform [0,1) hash of (seed, stream, counter). */
    double hash01(uint64_t stream, uint64_t counter) const;

    /** Virtual duration of assignment @p assignment. */
    double sampleDuration(uint64_t assignment) const;

    void schedule(double time, Event event);

    /** Is the pool scarce enough for critical-only dispatch? */
    bool degraded() const;

    /** Is @p id a queued attempt (not dispatched, cancelled or shed)? */
    bool queued(uint64_t id) const;

    /** Serialize node @p n's next window into the queue. */
    void enqueueTask(size_t n);

    /** Re-enqueue pending windows of idle serviceable nodes. */
    void activateNodes();

    /** Fill idle workers from the queue; launch new node steps. */
    void dispatch();

    /** Start node @p n's window step in the background. */
    void launchStep(size_t n);

    /** Wait for step @p k, running unclaimed steps meanwhile. */
    void joinStep(uint64_t k);

    /** Wait for every launched step, without rethrowing. */
    void drainSteps();

    /** drainSteps(), then retireSteps(). */
    void joinAllSteps();

    /**
     * Fold finished steps into fleet_met_ in launch order, recording
     * each pending per-commit sample once exactly the steps launched
     * before its commit are folded. Rethrows a step's exception.
     */
    void retireSteps();

    /** LC jobs meeting QoS in node @p n's ground truth. */
    int64_t metOnNode(size_t n) const;

    /** Sum of metOnNode() over the fleet. */
    int64_t fleetMet() const;

    /** LC jobs admitted to the fleet, whatever their state. */
    int64_t lcAdmitted() const;

    /** Place queued jobs (after joining every step, if any are queued). */
    void placeQueued();

    /** Event loop of run(): place, dispatch, drain, shed a stall. */
    void drive(int epochs);

    /** Settle the commits of the current virtual time (see @file). */
    void settle();

    /** A task's result arrived (or its scripted failure did). */
    void onComplete(uint64_t id);

    /** A task's lease ran out: reclaim (dead worker) or back up. */
    void onLease(uint64_t id);

    /** A task is straggling: speculatively duplicate it. */
    void onHedge(uint64_t id);

    /** A transiently lost worker comes back. */
    void onRejoin(int worker);

    /** Window-cadence pacing tick of a shed node. */
    void onReplenish(size_t node);

    /** Schedule @p rec's killed worker to rejoin, unless scripted. */
    void maybeRejoin(const TaskRec& rec);

    /** Launch a retry attempt, or fail the window when out of budget. */
    void retryOrFail(TaskRec& rec);

    /** A window ran out of attempts (or was shed): consume it. */
    void consumeWindow(size_t n, bool failed);

    /** Deliver @p rec's result: advance the node, join the batch. */
    void commit(TaskRec& rec);

    /** Evict everything from node @p n and bar it from service. */
    void quarantineNode(size_t n);

    /** Remove @p id from its node's live-attempt list. */
    void dropLive(size_t n, uint64_t id);

    Fleet& fleet_;
    AsyncOptions options_;
    platform::FaultInjector faults_;
    WorkerPool workers_;
    TaskQueue queue_;

    /** Live attempts only; records are erased when they resolve. */
    std::map<uint64_t, TaskRec> tasks_;
    std::vector<NodeCtl> nodes_;
    std::vector<char> quarantine_; ///< Placement mask (1 = barred).
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;

    FleetMetrics metrics_;
    stats::RunningStats qos_history_;

    std::shared_ptr<StepQueue> steps_;
    uint64_t launched_ = 0; ///< Node steps launched so far.
    /** Per-commit QoS samples not yet recorded: each the launch count
     *  at its commit (the steps it must see, and no more). */
    std::deque<uint64_t> pending_samples_;
    /** fleetMet() as of the retired steps. */
    int64_t fleet_met_ = 0;
    /** lcAdmitted() for this run: admissions happen between runs, so
     *  it is every per-commit sample's denominator. */
    int64_t lc_admitted_ = 0;

    /** Nodes committed at the current virtual time, not yet settled. */
    std::vector<size_t> settling_;
    /** Counts since construction; fractions only for a lockstep epoch. */
    FleetWindow window_;
    /** Set by Fleet::tick(); window_sampled_ once it has fractions. */
    bool lockstep_ = false;
    bool window_sampled_ = false;

    double now_ = 0.0;
    uint64_t next_task_id_ = 0;
    uint64_t next_seq_ = 0;
    uint64_t assignments_ = 0;
};

} // namespace cluster
} // namespace clite

#endif // CLITE_CLUSTER_MANAGER_H
