#include "core/monitor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/log.h"

namespace clite {
namespace core {

OnlineManager::OnlineManager(platform::SimulatedServer& server,
                             CliteOptions clite_options,
                             MonitorOptions options,
                             store::ProfileStore* store)
    : server_(server), clite_(std::move(clite_options)), options_(options),
      store_(store)
{
    CLITE_CHECK(options_.violation_patience >= 1,
                "violation patience must be >= 1");
    CLITE_CHECK(options_.drift_patience >= 1, "drift patience must be >= 1");
    CLITE_CHECK(options_.load_drift_threshold > 0.0,
                "drift threshold must be > 0");
    CLITE_CHECK(options_.apply_fail_patience >= 1,
                "apply-fail patience must be >= 1");
    CLITE_CHECK(options_.apply_retries >= 0,
                "apply retries must be >= 0");
    CLITE_CHECK(options_.transient_ride_windows >= 0,
                "transient ride windows must be >= 0");
}

int
OnlineManager::effectiveViolationPatience() const
{
    if (options_.reopt_policy == ReoptPolicy::Immediate)
        return options_.violation_patience;
    return options_.violation_patience + options_.transient_ride_windows;
}

int
OnlineManager::effectiveDriftPatience() const
{
    if (options_.reopt_policy == ReoptPolicy::Immediate)
        return options_.drift_patience;
    return options_.drift_patience + options_.transient_ride_windows;
}

void
OnlineManager::recordWindowQos(
    const std::vector<platform::JobObservation>& obs, bool faulted)
{
    WindowQos w;
    w.faulted = faulted;
    for (const auto& ob : obs) {
        if (!ob.is_lc || ob.qos_target_ms <= 0.0)
            continue;
        w.worst_p95_ratio =
            std::max(w.worst_p95_ratio, ob.p95_ms / ob.qos_target_ms);
        w.worst_p99_ratio =
            std::max(w.worst_p99_ratio, ob.p99_ms / ob.qos_target_ms);
        if (ob.p95_ms > ob.qos_target_ms)
            w.violated = true;
    }
    qos_timeline_.push_back(w);
    if (!faulted) {
        ++clean_windows_;
        if (w.violated)
            ++violating_windows_;
    }
}

const ControllerResult&
OnlineManager::initialize()
{
    WarmStart warm = takeWarmStart();
    last_result_ =
        warm.empty() ? clite_.run(server_) : clite_.runWarm(server_, warm);
    accumulateSearchStats();
    adoptResult();
    captureReference();
    checkpoint();
    return *last_result_;
}

WarmStart
OnlineManager::lookupWarmStart()
{
    warm_source_ = "cold";
    if (store_ == nullptr)
        return {};
    const store::MixSignature sig = store::MixSignature::of(server_);
    if (std::optional<store::Snapshot> snap = store_->find(sig)) {
        WarmStart warm =
            store::warmStartFromSnapshot(*snap, server_, /*exact=*/true);
        if (!warm.empty()) {
            warm_source_ = "exact";
            CLITE_LOG_INFO("warm start (exact) from mix "
                           << sig.describe());
            return warm;
        }
    }
    for (const store::Neighbor& n : store_->nearest(sig, 1)) {
        if (n.distance > kWarmStartMaxDistance)
            continue;
        WarmStart warm = store::warmStartFromSnapshot(n.snapshot, server_,
                                                      /*exact=*/false);
        if (!warm.empty()) {
            warm_source_ = "similar";
            CLITE_LOG_INFO("warm start (similar, distance " << n.distance
                                                            << ") for mix "
                                                            << sig.describe());
            return warm;
        }
    }
    return {};
}

void
OnlineManager::prefetchWarmStart()
{
    if (store_ != nullptr && (!last_result_.has_value() || mix_changed_))
        prefetched_warm_ = lookupWarmStart();
}

WarmStart
OnlineManager::takeWarmStart()
{
    if (!prefetched_warm_.has_value())
        return lookupWarmStart();
    WarmStart warm = std::move(*prefetched_warm_);
    prefetched_warm_.reset();
    return warm;
}

store::Snapshot
OnlineManager::makeCheckpoint() const
{
    CLITE_CHECK(last_result_.has_value() && incumbent_.has_value(),
                "OnlineManager::makeCheckpoint() called before "
                "initialize(); run initialize() first");
    store::ControllerPhase phase = store::ControllerPhase::Search;
    if (last_result_->best.has_value()) {
        const bool demoted = !(*incumbent_ == *last_result_->best);
        phase = demoted ? store::ControllerPhase::Degraded
                        : store::ControllerPhase::Steady;
    }
    return store::captureSnapshot(server_, *last_result_, *incumbent_,
                                  phase, last_window_qos_met_,
                                  uint64_t(windows_));
}

void
OnlineManager::checkpoint()
{
    if (store_ == nullptr || !options_.auto_checkpoint)
        return;
    if (!last_result_.has_value() || !incumbent_.has_value())
        return;
    store_->put(makeCheckpoint());
}

void
OnlineManager::captureReference()
{
    reference_rate_.assign(server_.jobCount(), 0.0);
    for (size_t j = 0; j < server_.jobCount(); ++j)
        if (server_.job(j).isLatencyCritical())
            reference_rate_[j] = server_.job(j).offeredQps();
    job_down_.assign(server_.jobCount(), 0);
    violation_streak_ = 0;
    drift_streak_ = 0;
    // A search just ran (or the loop reset): streaks being ridden are
    // resolved by whatever caused the reset, not counted as transients.
    violation_riding_ = false;
    drift_riding_ = false;
    apply_fail_streak_ = 0;
}

const platform::Allocation&
OnlineManager::incumbent() const
{
    CLITE_CHECK(incumbent_.has_value(),
                "OnlineManager::incumbent() called before initialize(); "
                "run initialize() first");
    return *incumbent_;
}

const ControllerResult&
OnlineManager::lastResult() const
{
    CLITE_CHECK(last_result_.has_value(),
                "OnlineManager::lastResult() called before initialize(); "
                "run initialize() first");
    return *last_result_;
}

void
OnlineManager::adoptResult()
{
    if (last_result_->best.has_value()) {
        incumbent_ = *last_result_->best;
        return;
    }
    // The search produced no usable configuration (possible under
    // heavy faults). Keep the previous incumbent when its shape still
    // matches the job set; otherwise degrade to the equal share so
    // the loop keeps running instead of aborting.
    if (incumbent_.has_value() && incumbent_->jobs() == server_.jobCount())
        return;
    platform::Allocation equal =
        platform::Allocation::equalShare(server_.jobCount(), server_.config());
    server_.apply(equal);
    for (int a = 0; a < options_.apply_retries && !server_.lastApplyOk(); ++a)
        server_.apply(equal);
    incumbent_ = equal;
    CLITE_LOG_INFO("no usable search result; incumbent degraded to "
                   "equal share");
}

void
OnlineManager::reoptimize(const std::string& reason, bool mix_changed)
{
    CLITE_LOG_INFO("re-optimizing: " << reason);
    if (mix_changed) {
        // The incumbent's shape no longer matches the job set. When
        // the change is a recognizable single add/remove, adapt the
        // incumbent to the new shape and seed the search with it —
        // the partition the search converged on is a strong warm
        // start; an unrecognizable change (several jobs at once)
        // falls back to a from-scratch search.
        std::optional<platform::Allocation> seed;
        if (incumbent_.has_value()) {
            if (server_.jobCount() == incumbent_->jobs() + 1)
                seed = incumbent_->withJobAdded();
            else if (removed_job_.has_value() &&
                     incumbent_->jobs() == server_.jobCount() + 1 &&
                     *removed_job_ < incumbent_->jobs() &&
                     server_.jobCount() >= 1)
                seed = incumbent_->withJobRemoved(*removed_job_);
        }
        // The store may already know the NEW mix (a recurring
        // co-location): its prior configurations join the adapted
        // incumbent in the bootstrap.
        WarmStart warm = takeWarmStart();
        if (seed.has_value())
            last_result_ = warm.empty()
                               ? clite_.reoptimize(server_, *seed)
                               : clite_.reoptimizeWarm(server_, *seed, warm);
        else
            last_result_ = warm.empty() ? clite_.run(server_)
                                        : clite_.runWarm(server_, warm);
    } else {
        // Violation/drift re-optimization stays warm-free beyond the
        // incumbent seed: the stored prior described an operating
        // point that just proved wrong, and trusting it here could
        // skip the infeasibility probes exactly when they matter.
        last_result_ = clite_.reoptimize(server_, *incumbent_);
    }
    accumulateSearchStats();
    adoptResult();
    captureReference();
    mix_changed_ = false;
    removed_job_.reset();
    ++reoptimizations_;
}

void
OnlineManager::accumulateSearchStats()
{
    refits_ += last_result_->refits;
    probe_evals_ += last_result_->probe_evals;
    coarse_windows_ += last_result_->coarse_windows;
}

bool
OnlineManager::watchdog(Tick& out)
{
    if (!incumbent_.has_value() ||
        incumbent_->jobs() != server_.jobCount())
        return false;

    // Compare only live columns: a dead knob keeps its last programmed
    // value, which the incumbent cannot (and need not) change.
    std::vector<char> is_dead(incumbent_->resources(), 0);
    for (size_t r : server_.deadResources())
        is_dead[r] = 1;
    bool match = true;
    {
        const platform::Allocation& cur = server_.currentAllocation();
        for (size_t j = 0; j < cur.jobs() && match; ++j)
            for (size_t r = 0; r < cur.resources(); ++r)
                if (!is_dead[r] && cur.get(j, r) != incumbent_->get(j, r)) {
                    match = false;
                    break;
                }
    }
    if (match) {
        apply_fail_streak_ = 0;
        return true;
    }

    // The incumbent is not programmed (a transient apply failure left
    // the server on a stale partition): re-apply with bounded retries.
    server_.apply(*incumbent_);
    for (int a = 0; a < options_.apply_retries && !server_.lastApplyOk(); ++a)
        server_.apply(*incumbent_);
    if (server_.lastApplyOk()) {
        apply_fail_streak_ = 0;
        return true;
    }

    ++apply_fail_streak_;
    if (apply_fail_streak_ < options_.apply_fail_patience)
        return false;

    // Repeated failure to program the incumbent: degrade gracefully to
    // the last configuration known to meet QoS, or the equal share
    // when none is known yet.
    platform::Allocation fallback =
        (last_known_good_.has_value() &&
         last_known_good_->jobs() == server_.jobCount())
            ? *last_known_good_
            : platform::Allocation::equalShare(server_.jobCount(),
                                               server_.config());
    server_.apply(fallback);
    for (int a = 0; a < options_.apply_retries && !server_.lastApplyOk(); ++a)
        server_.apply(fallback);
    incumbent_ = std::move(fallback);
    apply_fail_streak_ = 0;
    ++fallbacks_;
    out.fallback = true;
    CLITE_LOG_INFO("watchdog: incumbent unprogrammable, fell back to "
                   << (last_known_good_.has_value() ? "last known-good"
                                                    : "equal share"));
    return false;
}

OnlineManager::Tick
OnlineManager::tick()
{
    CLITE_CHECK(last_result_.has_value(),
                "OnlineManager::tick() called before initialize(); "
                "run initialize() first");
    ++windows_;

    Tick out;

    if (mix_changed_) {
        out.reoptimized = true;
        out.reason = "mix-change";
        reoptimize(out.reason, true);
        out.search_samples = last_result_->samples;
    }

    const bool faults = server_.faultsEnabled();
    bool incumbent_verified = !faults;
    if (!out.reoptimized && faults)
        incumbent_verified = watchdog(out);

    // Mid-window early-abort (budgeted controllers only): peek at the
    // partial counters and cancel a window whose tail already proves
    // a clear QoS violation instead of paying for the rest of it. The
    // abort only fires on clean telemetry — a dropped, stale, or
    // crashed partial falls through to the full window so the fault
    // quarantine (and crash bookkeeping) below handles it. An aborted
    // window advances the violation streak like any violating window,
    // but NEVER updates last_window_qos_met_: a partial reading must
    // not poison the checkpointed incumbent QoS state.
    const bo::BudgetOptions& bopts = clite_.options().budget;
    if (!out.reoptimized && bopts.enabled() && bopts.early_abort) {
        std::vector<platform::JobObservation> partial =
            server_.observePartialWindow(bopts.abort_check_fraction);
        bool clean = true;
        for (const auto& ob : partial)
            if (!ob.valid || ob.stale || ob.crashed)
                clean = false;
        std::vector<bo::PartialTailSample> tails;
        if (clean) {
            tails.reserve(partial.size());
            for (const auto& ob : partial) {
                bo::PartialTailSample t;
                t.p95_ms = ob.p95_ms;
                t.target_ms = ob.qos_target_ms;
                t.is_lc = ob.is_lc;
                t.valid = ob.valid;
                t.fraction = ob.window_fraction;
                tails.push_back(t);
            }
        }
        if (clean && bo::BudgetPolicy::shouldAbort(tails, bopts)) {
            ScoreBreakdown psb = scoreObservations(partial);
            out.aborted = true;
            out.all_qos_met = false;
            out.score = psb.score;
            recordWindowQos(partial, /*faulted=*/false);
            ++aborted_windows_;
            ++violation_streak_;
            if (violation_streak_ >= effectiveViolationPatience()) {
                out.reoptimized = true;
                out.reason = "qos-violation";
                if (options_.reopt_policy == ReoptPolicy::RideTransients)
                    ++sustained_shifts_;
                reoptimize(out.reason, false);
                out.search_samples = last_result_->samples;
            } else if (options_.reopt_policy ==
                           ReoptPolicy::RideTransients &&
                       violation_streak_ >= options_.violation_patience) {
                violation_riding_ = true;
            }
            checkpoint();
            return out;
        }
    }

    std::vector<platform::JobObservation> obs = server_.observe();
    ScoreBreakdown sb = scoreObservations(obs);
    out.all_qos_met = sb.all_qos_met;
    out.score = sb.score;

    if (faults) {
        // Crash bookkeeping: a restart re-captures the reference rates
        // (the restarted job ramps back to its offered load, which
        // must not read as drift of the incumbent's operating point).
        if (job_down_.size() != obs.size())
            job_down_.assign(obs.size(), 0);
        bool restarted = false;
        for (size_t j = 0; j < obs.size(); ++j) {
            if (obs[j].crashed) {
                job_down_[j] = 1;
            } else if (job_down_[j]) {
                job_down_[j] = 0;
                restarted = true;
            }
        }
        if (restarted && !out.reoptimized) {
            CLITE_LOG_INFO("job restart detected; re-capturing reference "
                           "rates");
            captureReference();
        }
    }

    // Percentile-over-time bookkeeping: every observed window lands in
    // the timeline; quarantined windows are flagged so the violating
    // fraction skips them.
    bool fault_window = false;
    if (faults) {
        for (const auto& ob : obs)
            if (!ob.valid || ob.stale || ob.crashed)
                fault_window = true;
        for (char down : job_down_)
            if (down)
                fault_window = true;
    }
    recordWindowQos(obs, fault_window);

    if (out.reoptimized) {
        last_window_qos_met_ = sb.all_qos_met;
        checkpoint();
        return out;
    }

    if (faults) {
        // Quarantine faulted windows: lost/stale telemetry or a down
        // job makes this window's QoS/score describe the fault, not
        // the partition. No streak advances — a glitch must not
        // trigger a spurious re-optimization, and no partition can
        // fix a dead process.
        if (fault_window) {
            // Quarantined telemetry describes the fault, not the
            // partition — last_window_qos_met_ keeps its pre-fault
            // value so a glitch cannot poison the checkpoint.
            out.faulted = true;
            ++faulted_windows_;
            checkpoint();
            return out;
        }
        // Only a window whose incumbent was verified programmed may
        // record a known-good configuration — a QoS-met window running
        // some stale partition says nothing about the incumbent.
        if (incumbent_verified && sb.all_qos_met && incumbent_.has_value())
            last_known_good_ = *incumbent_;
    }

    // QoS violation detection. A streak that was being ridden (it had
    // already reached the Immediate threshold) and decays here was a
    // transient the RideTransients policy absorbed.
    if (sb.all_qos_met) {
        if (violation_riding_) {
            ++transients_ridden_;
            violation_riding_ = false;
        }
        violation_streak_ = 0;
    } else {
        ++violation_streak_;
    }

    // Load drift: compare each LC job's observed completion rate to
    // the rate the incumbent was optimized for. (Completions track
    // offered load: a DES window below the knee counts its arrivals,
    // at or above it its departures, and either way the expectation
    // is λ·window while the job is unsaturated; when it IS saturated
    // the QoS check fires first.)
    bool drifting = false;
    for (size_t j = 0; j < obs.size(); ++j) {
        if (!obs[j].is_lc || reference_rate_[j] <= 0.0)
            continue;
        double rel = std::fabs(obs[j].throughput - reference_rate_[j]) /
                     reference_rate_[j];
        if (rel > options_.load_drift_threshold)
            drifting = true;
    }
    if (drifting) {
        ++drift_streak_;
    } else {
        if (drift_riding_) {
            ++transients_ridden_;
            drift_riding_ = false;
        }
        drift_streak_ = 0;
    }

    if (violation_streak_ >= effectiveViolationPatience()) {
        out.reoptimized = true;
        out.reason = "qos-violation";
    } else if (drift_streak_ >= effectiveDriftPatience()) {
        out.reoptimized = true;
        out.reason = "load-drift";
    } else if (options_.reopt_policy == ReoptPolicy::RideTransients) {
        // Streaks past the Immediate threshold but inside the ride
        // window: keep riding the incumbent.
        if (violation_streak_ >= options_.violation_patience)
            violation_riding_ = true;
        if (drift_streak_ >= options_.drift_patience)
            drift_riding_ = true;
    }
    last_window_qos_met_ = sb.all_qos_met;
    if (out.reoptimized) {
        if (options_.reopt_policy == ReoptPolicy::RideTransients)
            ++sustained_shifts_;
        reoptimize(out.reason, false);
        out.search_samples = last_result_->samples;
    }
    checkpoint();
    return out;
}

void
OnlineManager::notifyMixChange()
{
    mix_changed_ = true;
    removed_job_.reset();
    prefetched_warm_.reset();
}

void
OnlineManager::notifyJobRemoved(size_t server_index)
{
    mix_changed_ = true;
    prefetched_warm_.reset();
    // Only a single removal since the last search can be seeded; a
    // second structural change invalidates the remembered index.
    removed_job_ = removed_job_.has_value() ? std::optional<size_t>{}
                                            : std::optional<size_t>{
                                                  server_index};
}

} // namespace core
} // namespace clite
