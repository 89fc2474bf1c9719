#include "cluster/manager.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace clite {
namespace cluster {

namespace {

/**
 * Virtual time a probabilistically lost worker stays down before it
 * rejoins, in mean-task units (scripted deaths are permanent).
 */
constexpr double kRejoinDelay = 10.0;

/** met / admitted, or 1 when no LC job was admitted. */
double
metFraction(int64_t met, int64_t admitted)
{
    return admitted > 0 ? double(met) / double(admitted) : 1.0;
}

} // namespace

/**
 * Node steps launched by dispatch() and not yet retired, in launch
 * order, shared with the pool jobs that run them. Steps are claimed in
 * launch order by whichever thread gets there first: a pool job, or
 * the manager while it waits. Held by shared_ptr like parallelFor's
 * ForLoopState: a pool job scheduled only after its step was claimed,
 * or after run() returned, still finds valid state, claims nothing and
 * exits without touching the engine or the fleet.
 */
struct AsyncFleetEngine::StepQueue
{
    struct Step
    {
        size_t node = 0;
        bool done = false;
        int64_t delta = 0;        ///< What the step changed in fleet_met_.
        std::exception_ptr error; ///< What the step threw, if anything.
    };

    /** Runs node n's step and returns its met-count delta (any thread). */
    std::function<int64_t(size_t)> run_step;

    std::mutex mutex;
    std::condition_variable done_cv;
    std::deque<Step> steps; ///< Launch numbers [first, first + size).
    uint64_t first = 0;     ///< Steps retired.
    uint64_t next = 0;      ///< Steps claimed.
    size_t open = 0;        ///< Steps not yet done.

    Step& at(uint64_t k) { return steps[size_t(k - first)]; }

    /**
     * Claim the oldest unclaimed step and run it on this thread.
     * @p lk is held on entry and on return.
     * @return False when every step is already claimed.
     */
    bool
    runNext(std::unique_lock<std::mutex>& lk)
    {
        if (next == first + steps.size())
            return false;
        const uint64_t k = next++;
        const size_t node = at(k).node;
        lk.unlock();
        int64_t delta = 0;
        std::exception_ptr error;
        try {
            delta = run_step(node);
        } catch (...) {
            error = std::current_exception();
        }
        lk.lock();
        Step& step = at(k);
        step.delta = delta;
        step.error = error;
        step.done = true;
        --open;
        done_cv.notify_all();
        return true;
    }

    /** Run unclaimed steps until @p ready() holds, else sleep on it. */
    template <typename Ready>
    void
    waitFor(std::unique_lock<std::mutex>& lk, Ready ready)
    {
        while (!ready() && runNext(lk)) {
        }
        // Only the waiting manager launches steps: none left to claim
        // means none will appear while it sleeps.
        done_cv.wait(lk, ready);
    }
};

AsyncFleetEngine::AsyncFleetEngine(Fleet& fleet, AsyncOptions options)
    : fleet_(fleet),
      options_(std::move(options)),
      faults_(options_.faults, options_.fault_seed),
      workers_(options_.workers),
      nodes_(fleet.nodeCount()),
      quarantine_(fleet.nodeCount(), 0),
      steps_(std::make_shared<StepQueue>())
{
    CLITE_CHECK(options_.workers >= 1, "need at least one worker");
    CLITE_CHECK(options_.task_jitter >= 0.0 && options_.task_jitter < 1.0,
                "task_jitter must be in [0, 1)");
    CLITE_CHECK(options_.straggler_prob >= 0.0 &&
                    options_.straggler_prob <= 1.0,
                "straggler_prob must be a probability");
    CLITE_CHECK(options_.straggler_factor >= 1.0,
                "straggler_factor must be >= 1");
    CLITE_CHECK(options_.lease > 0.0, "lease must be positive");
    CLITE_CHECK(options_.max_retries >= 0, "max_retries must be >= 0");
    CLITE_CHECK(options_.hedge_delay > 0.0, "hedge_delay must be positive");
    CLITE_CHECK(options_.quarantine_failures >= 1,
                "quarantine_failures must be >= 1");
    CLITE_CHECK(options_.degrade_below >= 0.0 &&
                    options_.degrade_below <= 1.0,
                "degrade_below must be a fraction");
    steps_->run_step = [this](size_t n) {
        const int64_t before = metOnNode(n);
        fleet_.stepNode(n);
        return metOnNode(n) - before;
    };
}

double
AsyncFleetEngine::hash01(uint64_t stream, uint64_t counter) const
{
    // Same counter-keyed construction as FaultInjector::hash01: a pure
    // function of (seed, stream, counter), so durations are stable
    // whatever order the engine asks in.
    SplitMix64 sm(options_.fault_seed ^
                  (0x9E3779B97F4A7C15ull * (stream + 1)) ^
                  (0xC2B2AE3D27D4EB4Full * (counter + 1)));
    sm.next();
    return double(sm.next() >> 11) * (1.0 / 9007199254740992.0);
}

double
AsyncFleetEngine::sampleDuration(uint64_t assignment) const
{
    const double j = options_.task_jitter;
    double d = 1.0 - j + 2.0 * j * hash01(1, assignment);
    if (options_.straggler_prob > 0.0 &&
        hash01(2, assignment) < options_.straggler_prob)
        d *= options_.straggler_factor;
    return d;
}

void
AsyncFleetEngine::schedule(double time, Event event)
{
    event.time = time;
    event.seq = ++next_seq_;
    events_.push(event);
}

bool
AsyncFleetEngine::degraded() const
{
    return double(workers_.aliveCount()) <
           options_.degrade_below * double(workers_.size());
}

bool
AsyncFleetEngine::quarantined(size_t n) const
{
    CLITE_CHECK(n < nodes_.size(), "node index " << n << " out of range");
    return nodes_[n].quarantined;
}

size_t
AsyncFleetEngine::quarantinedCount() const
{
    size_t count = 0;
    for (const NodeCtl& ctl : nodes_)
        if (ctl.quarantined)
            ++count;
    return count;
}

uint64_t
AsyncFleetEngine::windowsCommitted(size_t n) const
{
    CLITE_CHECK(n < nodes_.size(), "node index " << n << " out of range");
    return nodes_[n].committed;
}

int64_t
AsyncFleetEngine::metOnNode(size_t n) const
{
    int64_t met = 0;
    for (const platform::JobObservation& ob : fleet_.nodes_[n].truth)
        if (ob.is_lc && ob.qosMet())
            ++met;
    return met;
}

int64_t
AsyncFleetEngine::fleetMet() const
{
    int64_t met = 0;
    for (size_t n = 0; n < nodes_.size(); ++n)
        met += metOnNode(n);
    return met;
}

int64_t
AsyncFleetEngine::lcAdmitted() const
{
    int64_t lc = 0;
    for (const FleetJob& job : fleet_.jobs_)
        if (job.spec.isLatencyCritical())
            ++lc;
    return lc;
}

double
AsyncFleetEngine::qosMetFraction() const
{
    return metFraction(fleetMet(), lcAdmitted());
}

double
AsyncFleetEngine::meanBgPerf() const
{
    // Every admitted BG job is in the denominator; only running ones
    // have a truth entry to add.
    const int64_t bg_admitted =
        int64_t(fleet_.jobs_.size()) - lcAdmitted();
    double sum = 0.0;
    for (const Fleet::Node& node : fleet_.nodes_)
        for (const platform::JobObservation& ob : node.truth)
            if (!ob.is_lc)
                sum += ob.perfNorm();
    return bg_admitted > 0 ? sum / double(bg_admitted) : 0.0;
}

bool
AsyncFleetEngine::queued(uint64_t id) const
{
    const auto it = tasks_.find(id);
    return it != tasks_.end() && it->second.state == TaskState::Queued;
}

void
AsyncFleetEngine::enqueueTask(size_t n)
{
    NodeCtl& ctl = nodes_[n];
    CLITE_CHECK(!ctl.in_flight,
                "node " << n << " already has a window in flight");
    WindowTask t;
    t.id = ++next_task_id_;
    t.node = n;
    t.epoch = ctl.epoch;
    t.attempt = 0;
    t.critical = fleet_.snapshot(n).lc_jobs > 0;
    ctl.in_flight = true;
    ctl.executed = false;
    ctl.attempts_started = 1;
    ctl.live.assign(1, t.id);
    TaskRec rec;
    rec.task = t;
    tasks_.emplace(t.id, rec);
    queue_.push(t);
}

void
AsyncFleetEngine::activateNodes()
{
    for (size_t n = 0; n < nodes_.size(); ++n) {
        NodeCtl& ctl = nodes_[n];
        if (!ctl.in_flight && !ctl.replenish_scheduled &&
            !ctl.quarantined && ctl.remaining > 0 &&
            fleet_.nodes_[n].server != nullptr)
            enqueueTask(n);
    }
}

void
AsyncFleetEngine::dispatch()
{
    const bool deg = degraded();
    if (deg && !queue_.empty()) {
        ++metrics_.degraded_dispatches;
        // Graceful degradation: shed the non-critical backlog instead
        // of letting it starve the QoS-critical class on what little
        // capacity is left. Shed windows are consumed (counted, paced
        // at the window cadence), never silently lost.
        for (uint64_t id : queue_.dropNormal()) {
            if (!queued(id))
                continue; // lazily cancelled earlier
            const WindowTask task = tasks_.at(id).task;
            tasks_.erase(id);
            dropLive(task.node, id);
            NodeCtl& ctl = nodes_[task.node];
            if (ctl.in_flight && ctl.epoch == task.epoch &&
                ctl.live.empty()) {
                ++metrics_.windows_dropped;
                consumeWindow(task.node, /*failed=*/false);
            }
        }
    }

    const auto alive = [this](uint64_t id) { return queued(id); };
    while (workers_.findIdle() >= 0) {
        std::optional<uint64_t> id = queue_.pop(deg, alive);
        if (!id.has_value())
            break;
        const int w = workers_.findIdle();
        TaskRec& rec = tasks_.at(*id);
        rec.assignment = assignments_++;
        rec.worker = w;
        rec.state = TaskState::Running;
        rec.dispatched_at = now_;
        workers_.assign(w, *id);
        ++metrics_.tasks_dispatched;

        // Decide this attempt's fate up front (pure counter-keyed
        // hashes, so the decision is reproducible and independent of
        // dispatch order). A doomed or failing attempt must not
        // execute the node step: OnlineManager::tick() is not
        // idempotent, and a lost/failed attempt's work is lost work.
        rec.doomed = faults_.workerLost(rec.assignment, size_t(w));
        const int fault_attempt =
            rec.task.hedge ? rec.task.attempt + 100000 : rec.task.attempt;
        rec.failing = !rec.doomed &&
                      faults_.taskFails(rec.task.node, rec.task.epoch,
                                        fault_attempt);

        NodeCtl& ctl = nodes_[rec.task.node];
        if (!rec.doomed && !rec.failing && !ctl.executed) {
            // First healthy attempt of this window: it carries the
            // real observe->fit->acquire step. Later healthy siblings
            // (hedges, backups) deliver this result without re-running
            // it.
            ctl.executed = true;
            launchStep(rec.task.node);
        }

        const double duration = sampleDuration(rec.assignment);
        if (!rec.doomed) {
            Event e;
            e.kind = Event::Complete;
            e.task = *id;
            schedule(now_ + duration, e);
        }
        Event lease;
        lease.kind = Event::Lease;
        lease.task = *id;
        schedule(now_ + options_.lease, lease);
        if (options_.hedging && !rec.task.hedge) {
            Event h;
            h.kind = Event::Hedge;
            h.task = *id;
            schedule(now_ + options_.hedge_delay, h);
        }
    }
}

void
AsyncFleetEngine::launchStep(size_t n)
{
    // A first or mix-change search seeds from the shared store. Read
    // it now, in dispatch order: a later commit's put must neither
    // race with the step nor show up in its result.
    if (core::OnlineManager* manager = fleet_.nodes_[n].manager.get())
        manager->prefetchWarmStart();
    nodes_[n].step = launched_++;
    {
        std::lock_guard<std::mutex> lk(steps_->mutex);
        StepQueue::Step step;
        step.node = n;
        steps_->steps.push_back(step);
        ++steps_->open;
    }
    globalPool().submit([q = steps_] {
        std::unique_lock<std::mutex> lk(q->mutex);
        q->runNext(lk);
    });
}

void
AsyncFleetEngine::joinStep(uint64_t k)
{
    StepQueue& q = *steps_;
    std::unique_lock<std::mutex> lk(q.mutex);
    // A retired step finished without an error.
    q.waitFor(lk, [&] { return k < q.first || q.at(k).done; });
    if (k >= q.first && q.at(k).error)
        std::rethrow_exception(q.at(k).error);
}

void
AsyncFleetEngine::drainSteps()
{
    StepQueue& q = *steps_;
    std::unique_lock<std::mutex> lk(q.mutex);
    q.waitFor(lk, [&] { return q.open == 0; });
}

void
AsyncFleetEngine::joinAllSteps()
{
    drainSteps();
    retireSteps();
}

void
AsyncFleetEngine::retireSteps()
{
    StepQueue& q = *steps_;
    std::lock_guard<std::mutex> lk(q.mutex);
    while (true) {
        // A sample taken when `first` steps had been launched sees
        // exactly those: record it before folding in the next one.
        while (!pending_samples_.empty() &&
               pending_samples_.front() == q.first) {
            qos_history_.add(metFraction(fleet_met_, lc_admitted_));
            pending_samples_.pop_front();
        }
        if (q.steps.empty() || !q.steps.front().done)
            return;
        const StepQueue::Step& step = q.steps.front();
        if (step.error)
            std::rethrow_exception(step.error);
        fleet_met_ += step.delta;
        q.steps.pop_front();
        ++q.first;
    }
}

void
AsyncFleetEngine::placeQueued()
{
    if (fleet_.queue_.empty())
        return;
    // Placement may host onto any node, and hostJob's pre-warm
    // broadcast needs an idle pool.
    joinAllSteps();
    window_.placed += fleet_.placeQueued(&quarantine_);
}

void
AsyncFleetEngine::dropLive(size_t n, uint64_t id)
{
    std::vector<uint64_t>& live = nodes_[n].live;
    live.erase(std::remove(live.begin(), live.end(), id), live.end());
}

void
AsyncFleetEngine::maybeRejoin(const TaskRec& rec)
{
    if (faults_.workerDeathScripted(rec.assignment, size_t(rec.worker)))
        return; // scripted deaths never rejoin
    Event e;
    e.kind = Event::Rejoin;
    e.worker = rec.worker;
    schedule(now_ + kRejoinDelay, e);
}

void
AsyncFleetEngine::retryOrFail(TaskRec& rec)
{
    const size_t n = rec.task.node;
    NodeCtl& ctl = nodes_[n];
    if (!ctl.in_flight || ctl.epoch != rec.task.epoch)
        return; // the window already resolved
    if (ctl.attempts_started <= options_.max_retries) {
        WindowTask t;
        t.id = ++next_task_id_;
        t.node = n;
        t.epoch = ctl.epoch;
        t.attempt = ctl.attempts_started++;
        t.critical = rec.task.critical;
        TaskRec retry;
        retry.task = t;
        tasks_.emplace(t.id, retry);
        ctl.live.push_back(t.id);
        queue_.pushFront(t); // a retry is late already
        ++metrics_.tasks_retried;
    } else if (ctl.live.empty()) {
        // Out of budget and no attempt can still win: the window is
        // lost. The node's jobs are untouched (zero job loss); only
        // this observation window failed to advance.
        consumeWindow(n, /*failed=*/true);
    }
}

void
AsyncFleetEngine::consumeWindow(size_t n, bool failed)
{
    NodeCtl& ctl = nodes_[n];
    ctl.in_flight = false;
    ctl.executed = false;
    ctl.attempts_started = 0;
    ctl.live.clear();
    ++ctl.epoch;
    if (ctl.remaining > 0)
        --ctl.remaining;
    if (failed) {
        ++metrics_.windows_failed;
        ++ctl.failure_streak;
        if (ctl.failure_streak >= options_.quarantine_failures) {
            quarantineNode(n);
            return;
        }
    }
    if (ctl.remaining > 0 && !ctl.quarantined &&
        fleet_.nodes_[n].server != nullptr) {
        // Resume at the window cadence, not instantly: a shed or
        // failed window must not let the node burn through its budget
        // in zero virtual time while the pool is degraded.
        ctl.replenish_scheduled = true;
        Event e;
        e.kind = Event::Replenish;
        e.node = n;
        schedule(now_ + 1.0, e);
    }
}

void
AsyncFleetEngine::quarantineNode(size_t n)
{
    NodeCtl& ctl = nodes_[n];
    ctl.quarantined = true;
    quarantine_[n] = 1;
    ++metrics_.nodes_quarantined;
    joinAllSteps();
    // Evict every hosted job back into the placement queue. No move is
    // charged: the node failed, not the job, so quarantine must never
    // push a job toward its parking budget.
    Fleet::Node& node = fleet_.nodes_[n];
    while (!node.job_ids.empty()) {
        const size_t idx = node.job_ids.size() - 1;
        const uint64_t id = node.job_ids[idx];
        FleetJob& job = fleet_.jobs_[size_t(id) - 1];
        fleet_.unhostJob(n, idx);
        job.state = JobState::Pending;
        job.node = -1;
        fleet_.queue_.push_back(id);
    }
    fleet_met_ = fleetMet();
    placeQueued();
    activateNodes();
}

void
AsyncFleetEngine::commit(TaskRec& rec)
{
    const size_t n = rec.task.node;
    NodeCtl& ctl = nodes_[n];
    joinStep(ctl.step);
    workers_.release(rec.worker);
    ++metrics_.tasks_committed;
    if (rec.task.hedge)
        ++metrics_.hedges_won;

    // First result wins: cancel every sibling attempt of this window.
    // A cancelled queued sibling is skipped lazily at pop; a running
    // one's pending events find no record and do nothing.
    for (uint64_t sid : ctl.live) {
        if (sid == rec.task.id)
            continue;
        const TaskRec sib = tasks_.at(sid);
        tasks_.erase(sid);
        if (sib.state == TaskState::Running) {
            if (sib.doomed) {
                // The loser's worker was going to die holding this
                // task; cancellation doesn't save it. Account the
                // physical loss now, before the stale lease fires.
                workers_.kill(sib.worker);
                ++metrics_.workers_lost;
                faults_.record(platform::FaultKind::WorkerLoss,
                               sib.task.id, size_t(sib.worker));
                maybeRejoin(sib);
            } else {
                workers_.release(sib.worker);
            }
            if (sib.task.hedge)
                ++metrics_.hedges_cancelled;
            else
                ++metrics_.stale_results;
        }
    }
    ctl.live.clear();
    ctl.in_flight = false;
    ctl.executed = false;
    ctl.attempts_started = 0;
    ctl.failure_streak = 0;
    ++ctl.epoch;
    ++ctl.committed;
    if (ctl.remaining > 0)
        --ctl.remaining;

    // The node's own bookkeeping: count its search, and sample fleet
    // QoS over every step launched so far (recorded once they are all
    // joined). The rest waits for the batch to settle.
    const Fleet::Node& node = fleet_.nodes_[n];
    if (node.searched)
        ++window_.reoptimizations;
    if (node.reoptimized)
        ++fleet_.reoptimizations_;
    pending_samples_.push_back(launched_);
    retireSteps();
    settling_.push_back(n);
}

void
AsyncFleetEngine::settle()
{
    // Node order, whatever order the batch committed in (critical
    // windows dispatch, and so commit, first).
    std::sort(settling_.begin(), settling_.end());
    if (lockstep_ && !window_sampled_) {
        // The lockstep window's fractions: every node's truth before
        // the epoch's first evictions, read with every step joined.
        joinAllSteps();
        window_.qos_met_fraction = qosMetFraction();
        window_.mean_bg_perf = meanBgPerf();
        window_sampled_ = true;
    }
    if (fleet_.options_.shared_store)
        for (size_t n : settling_)
            fleet_.store_.put(fleet_.nodes_[n].manager->makeCheckpoint());
    for (size_t n : settling_) {
        if (!fleet_.reportsInfeasible(n))
            continue;
        // Evictions re-place jobs onto other nodes.
        joinAllSteps();
        fleet_.rescheduleNode(n, window_, &quarantine_);
        fleet_met_ = fleetMet();
    }
    settling_.clear();
    placeQueued();
    // activateNodes() re-enqueues the settled nodes' next windows too
    // (they now pass the same guard as any idle node) — it must be the
    // ONLY re-enqueue path, or an epoch gets two competing window
    // tasks.
    activateNodes();
}

void
AsyncFleetEngine::onComplete(uint64_t id)
{
    const auto it = tasks_.find(id);
    if (it == tasks_.end())
        return; // superseded while in flight; worker already handled
    TaskRec& rec = it->second;
    NodeCtl& ctl = nodes_[rec.task.node];
    if (!ctl.in_flight || ctl.epoch != rec.task.epoch) {
        // Stale attempt of an already-resolved window that escaped the
        // sibling cancellation (defense in depth): release its worker,
        // never commit it.
        workers_.release(rec.worker);
        if (rec.task.hedge)
            ++metrics_.hedges_cancelled;
        else
            ++metrics_.stale_results;
    } else if (rec.failing) {
        workers_.release(rec.worker);
        ++metrics_.task_failures;
        faults_.record(platform::FaultKind::TaskFailure, rec.task.epoch,
                       rec.task.node);
        dropLive(rec.task.node, id);
        retryOrFail(rec);
    } else {
        commit(rec);
    }
    tasks_.erase(it);
}

void
AsyncFleetEngine::onLease(uint64_t id)
{
    const auto it = tasks_.find(id);
    if (it == tasks_.end() || it->second.state != TaskState::Running)
        return; // resolved before the lease ran out
    TaskRec& rec = it->second;
    ++metrics_.lease_expiries;
    if (rec.doomed) {
        // The worker died holding the task; the lease is how the
        // manager finds out. Reclaim and resubmit.
        workers_.kill(rec.worker);
        ++metrics_.workers_lost;
        faults_.record(platform::FaultKind::WorkerLoss, rec.task.id,
                       size_t(rec.worker));
        maybeRejoin(rec);
        dropLive(rec.task.node, id);
        retryOrFail(rec);
        tasks_.erase(it);
    } else {
        // Spurious expiry on a straggler: the attempt keeps running
        // (it may still win) while a backup enters the queue.
        retryOrFail(rec);
    }
}

void
AsyncFleetEngine::onHedge(uint64_t id)
{
    const auto it = tasks_.find(id);
    if (!options_.hedging || it == tasks_.end() ||
        it->second.state != TaskState::Running || it->second.hedged)
        return;
    TaskRec& rec = it->second;
    NodeCtl& ctl = nodes_[rec.task.node];
    if (!ctl.in_flight || ctl.epoch != rec.task.epoch)
        return;
    if (workers_.findIdle() < 0)
        return; // no spare capacity to speculate with
    rec.hedged = true;
    WindowTask t;
    t.id = ++next_task_id_;
    t.node = rec.task.node;
    t.epoch = rec.task.epoch;
    t.attempt = rec.task.attempt;
    t.hedge = true;
    t.critical = rec.task.critical;
    TaskRec hedge;
    hedge.task = t;
    tasks_.emplace(t.id, hedge);
    ctl.live.push_back(t.id);
    queue_.pushFront(t);
    ++metrics_.hedges_launched;
}

void
AsyncFleetEngine::onRejoin(int worker)
{
    if (workers_.worker(worker).state != WorkerState::Dead)
        return; // already back (stale event from an earlier loss)
    workers_.revive(worker);
    ++metrics_.workers_rejoined;
}

void
AsyncFleetEngine::onReplenish(size_t node)
{
    NodeCtl& ctl = nodes_[node];
    ctl.replenish_scheduled = false;
    if (!ctl.in_flight && !ctl.quarantined && ctl.remaining > 0 &&
        fleet_.nodes_[node].server != nullptr)
        enqueueTask(node);
}

void
AsyncFleetEngine::drive(int epochs)
{
    for (NodeCtl& ctl : nodes_)
        ctl.remaining = epochs;
    placeQueued();
    activateNodes();
    dispatch();

    while (!events_.empty()) {
        const Event e = events_.top();
        events_.pop();
        now_ = std::max(now_, e.time);
        switch (e.kind) {
          case Event::Complete:
            onComplete(e.task);
            break;
          case Event::Lease:
            onLease(e.task);
            break;
          case Event::Hedge:
            onHedge(e.task);
            break;
          case Event::Rejoin:
            onRejoin(e.worker);
            break;
          case Event::Replenish:
            onReplenish(e.node);
            break;
        }
        // Completions that share a virtual time settle as one batch.
        const bool batch_open = !events_.empty() &&
                                events_.top().kind == Event::Complete &&
                                events_.top().time == now_;
        if (!settling_.empty() && !batch_open)
            settle();
        dispatch();
    }
    joinAllSteps();

    // A drained event heap with tasks still queued means every worker
    // is permanently dead: nothing can ever dispatch again. Shed the
    // backlog visibly rather than pretending the run finished.
    const auto alive = [this](uint64_t id) { return queued(id); };
    bool stalled = false;
    while (std::optional<uint64_t> id = queue_.pop(false, alive)) {
        tasks_.erase(*id);
        ++metrics_.windows_dropped;
        stalled = true;
    }
    if (stalled) {
        metrics_.stalled = true;
        for (NodeCtl& ctl : nodes_) {
            ctl.live.clear();
            ctl.in_flight = false;
            ctl.executed = false;
            ctl.attempts_started = 0;
            ctl.remaining = 0;
        }
    }
}

const FleetMetrics&
AsyncFleetEngine::run(int epochs)
{
    CLITE_CHECK(epochs >= 1, "run() needs at least one epoch");
    // Every step of an earlier run is joined: count from scratch.
    fleet_met_ = fleetMet();
    lc_admitted_ = lcAdmitted();
    try {
        drive(epochs);
    } catch (...) {
        // No pool job may outlive run() holding the fleet.
        drainSteps();
        throw;
    }

    // Refit observability: node managers count cumulatively since
    // their creation, so assign (not add) — idempotent across run()
    // calls and immune to double-counting.
    metrics_.refits = 0;
    metrics_.probe_evals = 0;
    metrics_.coarse_windows = 0;
    metrics_.qos_windows = 0;
    metrics_.violating_windows = 0;
    metrics_.transients_ridden = 0;
    metrics_.sustained_shifts = 0;
    for (const Fleet::Node& node : fleet_.nodes_) {
        if (node.manager == nullptr)
            continue;
        metrics_.refits += node.manager->refits();
        metrics_.probe_evals += node.manager->probeEvals();
        metrics_.coarse_windows += node.manager->coarseWindows();
        metrics_.qos_windows += node.manager->qosWindows();
        metrics_.violating_windows += node.manager->violatingWindows();
        metrics_.transients_ridden += node.manager->transientsRidden();
        metrics_.sustained_shifts += node.manager->sustainedShifts();
    }
    return metrics_;
}

} // namespace cluster
} // namespace clite
