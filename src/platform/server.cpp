#include "platform/server.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/log.h"

namespace clite {
namespace platform {

namespace {

/** Blank a crashed job's reading: no throughput, an unbounded tail. */
void
blankCrashed(JobObservation& ob)
{
    ob.crashed = true;
    ob.throughput = 0.0;
    if (ob.is_lc) {
        ob.p95_ms = 1e9;
        ob.p99_ms = 1e9;
    }
}

} // namespace

bool
JobObservation::qosMet() const
{
    if (!is_lc)
        return true;
    return p95_ms <= qos_target_ms;
}

double
JobObservation::perfNorm() const
{
    if (is_lc) {
        if (p95_ms <= 0.0)
            return 1.0;
        return std::min(1.0, std::max(1e-6, iso_p95_ms / p95_ms));
    }
    if (iso_throughput <= 0.0)
        return 1.0;
    return std::min(1.0, std::max(1e-6, throughput / iso_throughput));
}

double
JobObservation::qosRatio() const
{
    if (!is_lc || p95_ms <= 0.0)
        return 1.0;
    return qos_target_ms / p95_ms;
}

SimulatedServer::SimulatedServer(
    ServerConfig config, std::vector<workloads::JobSpec> jobs,
    std::unique_ptr<workloads::PerformanceModel> model, uint64_t seed,
    double noise_sigma)
    : config_(std::move(config)),
      jobs_(std::move(jobs)),
      model_(std::move(model)),
      noise_rng_(seed),
      model_rng_(seed ^ 0xABCDEF0123456789ull),
      noise_sigma_(noise_sigma)
{
    CLITE_CHECK(!jobs_.empty(), "server needs >= 1 co-located job");
    CLITE_CHECK(model_ != nullptr, "server needs a performance model");
    CLITE_CHECK(noise_sigma_ >= 0.0, "noise sigma must be >= 0");
    for (size_t r = 0; r < config_.resourceCount(); ++r)
        CLITE_CHECK(size_t(config_.resource(r).units) >= jobs_.size(),
                    "resource " << resourceName(config_.resource(r).kind)
                                << " cannot give each of " << jobs_.size()
                                << " jobs one unit");
    for (const auto& spec : config_.resources())
        drivers_.push_back(makeDriver(spec));

    iso_cache_value_.assign(jobs_.size(), 0.0);
    iso_cache_load_.assign(jobs_.size(), -1.0);
    iso_cache_valid_.assign(jobs_.size(), false);

    // Start from the equal-share partition, as an operator would.
    apply(Allocation::equalShare(jobs_.size(), config_));
    apply_count_ = 0; // the initial programming is not a decision sample
    apply_latency_ms_ = 0.0;
}

const workloads::JobSpec&
SimulatedServer::job(size_t j) const
{
    CLITE_CHECK(j < jobs_.size(), "job " << j << " out of " << jobs_.size());
    return jobs_[j];
}

std::vector<size_t>
SimulatedServer::lcJobs() const
{
    std::vector<size_t> out;
    for (size_t j = 0; j < jobs_.size(); ++j)
        if (jobs_[j].isLatencyCritical())
            out.push_back(j);
    return out;
}

std::vector<size_t>
SimulatedServer::bgJobs() const
{
    std::vector<size_t> out;
    for (size_t j = 0; j < jobs_.size(); ++j)
        if (!jobs_[j].isLatencyCritical())
            out.push_back(j);
    return out;
}

void
SimulatedServer::applyInternal(const Allocation& alloc)
{
    for (size_t r = 0; r < drivers_.size(); ++r) {
        drivers_[r]->apply(alloc, r);
        apply_latency_ms_ += drivers_[r]->applyLatencyMs();
    }
    current_ = std::make_unique<Allocation>(alloc);
    ++apply_count_;
    last_apply_ok_ = true;
}

void
SimulatedServer::apply(const Allocation& alloc)
{
    CLITE_CHECK(alloc.jobs() == jobs_.size(),
                "allocation for " << alloc.jobs() << " jobs, server has "
                                  << jobs_.size());
    CLITE_CHECK(alloc.resources() == config_.resourceCount(),
                "allocation has " << alloc.resources()
                                  << " resources, server has "
                                  << config_.resourceCount());
    alloc.validate();
    if (!faultsEnabled()) {
        applyInternal(alloc);
        return;
    }

    const uint64_t idx = apply_count_;
    if (faults_->applyFails(idx)) {
        // Transient failure: the tool returned an error, nothing got
        // programmed. The attempt still counts toward the overhead
        // accounting; latency does not (the call failed fast).
        faults_->record(FaultKind::ApplyFailure, idx);
        last_apply_ok_ = false;
        ++apply_count_;
        return;
    }

    // Dead knobs keep their last programmed column; every live knob
    // is programmed as requested, so current_ records what actually
    // runs, not what was asked for.
    Allocation programmed = alloc;
    std::vector<char> dead(drivers_.size(), 0);
    if (current_ != nullptr && current_->jobs() == alloc.jobs()) {
        for (size_t r = 0; r < drivers_.size(); ++r) {
            if (!faults_->resourceDead(r, idx))
                continue;
            dead[r] = 1;
            for (size_t j = 0; j < jobs_.size(); ++j)
                programmed.set(j, r, current_->get(j, r));
        }
    }
    for (size_t r = 0; r < drivers_.size(); ++r) {
        if (dead[r])
            continue; // knob untouched: old driver state, no latency
        drivers_[r]->apply(programmed, r);
        apply_latency_ms_ += drivers_[r]->applyLatencyMs();
    }
    current_ = std::make_unique<Allocation>(programmed);
    ++apply_count_;
    last_apply_ok_ = true;
}

void
SimulatedServer::setFaultInjector(std::shared_ptr<FaultInjector> faults)
{
    faults_ = std::move(faults);
    last_apply_ok_ = true;
    last_window_.clear();
}

std::vector<size_t>
SimulatedServer::deadResources() const
{
    std::vector<size_t> out;
    if (!faultsEnabled())
        return out;
    for (size_t r = 0; r < config_.resourceCount(); ++r)
        if (faults_->resourceDead(r, apply_count_))
            out.push_back(r);
    return out;
}

const Allocation&
SimulatedServer::currentAllocation() const
{
    CLITE_ASSERT(current_ != nullptr, "no allocation applied yet");
    return *current_;
}

workloads::JobMeasurement
SimulatedServer::isolationBaseline(size_t j) const
{
    CLITE_CHECK(j < jobs_.size(), "job " << j << " out of " << jobs_.size());
    if (!iso_cache_valid_[j] ||
        iso_cache_load_[j] != jobs_[j].load_fraction) {
        // Max-allocation extremum: job j gets everything except one
        // unit per other job (the bootstrap sample of Sec. 4).
        const std::vector<int> units =
            Allocation::maxFor(j, jobs_.size(), config_).row(j);
        Rng iso_rng(0x15015015ull + j); // fixed: baseline is noise-free
        // The baseline is cached and divides every later score of the
        // job, so it is measured fine even inside a coarse search
        // probe; the caller's budget is restored on every exit.
        struct FineBaseline
        {
            workloads::PerformanceModel& model;
            uint64_t budget;
            ~FineBaseline() { model.setEventBudget(budget); }
        } fine{*model_, model_->eventBudget()};
        model_->setEventBudget(0);
        workloads::JobMeasurement m =
            model_->measure(jobs_[j], units, config_, iso_rng);
        iso_cache_value_[j] = jobs_[j].isLatencyCritical() ? m.p95_ms
                                                           : m.throughput;
        iso_cache_load_[j] = jobs_[j].load_fraction;
        iso_cache_valid_[j] = true;
    }
    workloads::JobMeasurement m;
    if (jobs_[j].isLatencyCritical())
        m.p95_ms = iso_cache_value_[j];
    else
        m.throughput = iso_cache_value_[j];
    return m;
}

JobObservation
SimulatedServer::observation(size_t j, const workloads::JobMeasurement& m,
                             double noise) const
{
    JobObservation ob;
    ob.job_name = jobs_[j].profile.name;
    ob.is_lc = jobs_[j].isLatencyCritical();
    ob.load_fraction = jobs_[j].load_fraction;
    if (ob.is_lc) {
        // The p99 rides the same noise multiplier as the p95 — one
        // draw per job keeps the noise stream (and every golden
        // depending on it) unchanged.
        ob.p95_ms = m.p95_ms * noise;
        ob.p99_ms = m.p99_ms * noise;
        ob.qos_target_ms = jobs_[j].profile.qos_p95_ms;
        ob.throughput = m.throughput;
        ob.iso_p95_ms = isolationBaseline(j).p95_ms;
    } else {
        ob.throughput = m.throughput * noise;
        ob.iso_throughput = isolationBaseline(j).throughput;
    }
    return ob;
}

std::vector<JobObservation>
SimulatedServer::measureWindow(Rng& model_rng, Rng& noise_rng,
                               double sigma) const
{
    std::vector<JobObservation> out;
    out.reserve(jobs_.size());
    for (size_t j = 0; j < jobs_.size(); ++j) {
        workloads::JobMeasurement m =
            model_->measure(jobs_[j], current_->row(j), config_, model_rng);
        double noise =
            sigma > 0.0 ? noise_rng.logNormalMean(1.0, sigma) : 1.0;
        out.push_back(observation(j, m, noise));
    }
    return out;
}

std::vector<JobObservation>
SimulatedServer::observe()
{
    CLITE_CHECK(current_ != nullptr, "observe() before any apply()");
    const uint64_t window = observe_count_;
    ++observe_count_;

    std::vector<JobObservation> out =
        measureWindow(model_rng_, noise_rng_, noise_sigma_);
    if (!faultsEnabled())
        return out;

    // Frozen counters: the window repeats the previously delivered
    // telemetry (the measurement above still happened — the system
    // ran — only its readout is lost).
    if (faults_->windowFrozen(window) && last_window_.size() == out.size()) {
        std::vector<JobObservation> frozen = last_window_;
        for (auto& ob : frozen)
            ob.stale = true;
        faults_->record(FaultKind::FrozenCounters, window);
        return frozen;
    }
    for (size_t j = 0; j < out.size(); ++j) {
        if (faults_->jobDown(window, j)) {
            blankCrashed(out[j]);
            faults_->record(FaultKind::JobCrash, window, j);
        } else if (out[j].is_lc && faults_->latencySpike(window, j)) {
            out[j].p95_ms *= faults_->plan().spike_factor;
            out[j].p99_ms *= faults_->plan().spike_factor;
            faults_->record(FaultKind::LatencySpike, window, j);
        }
    }
    if (faults_->windowDropout(window)) {
        for (auto& ob : out)
            ob.valid = false;
        faults_->record(FaultKind::MeasurementDropout, window);
        return out;
    }
    last_window_ = out;
    return out;
}

std::vector<JobObservation>
SimulatedServer::observePartialWindow(double fraction)
{
    CLITE_CHECK(current_ != nullptr,
                "observePartialWindow() before any apply()");
    CLITE_CHECK(fraction > 0.0 && fraction <= 1.0,
                "window fraction must be in (0,1], got " << fraction);
    ++partial_observe_count_;

    // Derived stream: a hash of the window index, the programmed
    // allocation, and the peek count keeps the peek deterministic
    // while leaving the full-window noise/model streams untouched —
    // a search that never aborts stays bit-identical to one that
    // never peeked.
    uint64_t h = 1469598103934665603ull ^ (observe_count_ * 0x9E3779B97F4A7C15ull);
    for (char c : current_->key())
        h = (h ^ uint64_t(uint8_t(c))) * 1099511628211ull;
    h ^= partial_observe_count_ * 0xD1B54A32D192ED03ull;
    Rng peek_rng(h);

    // Fewer queries observed so far -> noisier percentile estimate.
    std::vector<JobObservation> out = measureWindow(
        peek_rng, peek_rng, noise_sigma_ / std::sqrt(fraction));
    for (auto& ob : out)
        ob.window_fraction = fraction;
    if (!faultsEnabled())
        return out;

    // Read-only view of this window's fault state: lost telemetry is
    // visible at the peek (valid=false) but nothing is recorded —
    // the full observe() owns the window's fault accounting.
    const uint64_t window = observe_count_;
    if (faults_->windowDropout(window))
        for (auto& ob : out)
            ob.valid = false;
    for (size_t j = 0; j < out.size(); ++j)
        if (faults_->jobDown(window, j))
            blankCrashed(out[j]);
    return out;
}

std::vector<JobObservation>
SimulatedServer::evaluate(const Allocation& alloc)
{
    apply(alloc);
    return observe();
}

JobObservation
SimulatedServer::reference(size_t j, const std::vector<int>& units) const
{
    CLITE_CHECK(j < jobs_.size(), "job " << j << " out of " << jobs_.size());
    return observation(
        j, workloads::closedFormMeasure(jobs_[j], units, config_), 1.0);
}

std::vector<JobObservation>
SimulatedServer::observeNoiseless(const Allocation& alloc) const
{
    CLITE_CHECK(alloc.jobs() == jobs_.size(),
                "allocation for " << alloc.jobs() << " jobs, server has "
                                  << jobs_.size());
    alloc.validate();
    std::vector<JobObservation> out;
    out.reserve(jobs_.size());
    for (size_t j = 0; j < jobs_.size(); ++j)
        out.push_back(reference(j, alloc.row(j)));
    return out;
}

void
SimulatedServer::setLoad(size_t j, double load_fraction)
{
    CLITE_CHECK(j < jobs_.size(), "job " << j << " out of " << jobs_.size());
    CLITE_CHECK(jobs_[j].isLatencyCritical(),
                "setLoad only applies to latency-critical jobs");
    CLITE_CHECK(load_fraction > 0.0 && load_fraction <= 1.0,
                "load fraction must be in (0,1], got " << load_fraction);
    jobs_[j].load_fraction = load_fraction;
    CLITE_LOG_INFO("load of " << jobs_[j].profile.name << " set to "
                              << load_fraction * 100.0 << "%");
}

size_t
SimulatedServer::addJob(const workloads::JobSpec& job)
{
    for (size_t r = 0; r < config_.resourceCount(); ++r)
        CLITE_CHECK(size_t(config_.resource(r).units) > jobs_.size(),
                    "resource " << resourceName(config_.resource(r).kind)
                                << " cannot give " << jobs_.size() + 1
                                << " jobs one unit each");
    jobs_.push_back(job);
    iso_cache_value_.push_back(0.0);
    iso_cache_load_.push_back(-1.0);
    iso_cache_valid_.push_back(false);
    // Slot reconfiguration is an offline operation: it bypasses fault
    // injection so drivers, current_ and jobs_ never disagree on shape.
    applyInternal(Allocation::equalShare(jobs_.size(), config_));
    last_window_.clear();
    CLITE_LOG_INFO("job " << job.profile.name << " arrived; "
                          << jobs_.size() << " jobs co-located");
    return jobs_.size() - 1;
}

void
SimulatedServer::removeJob(size_t j)
{
    CLITE_CHECK(j < jobs_.size(), "job " << j << " out of "
                                         << jobs_.size());
    CLITE_CHECK(jobs_.size() > 1, "cannot remove the last job");
    CLITE_LOG_INFO("job " << jobs_[j].profile.name << " departed");
    jobs_.erase(jobs_.begin() + long(j));
    iso_cache_value_.erase(iso_cache_value_.begin() + long(j));
    iso_cache_load_.erase(iso_cache_load_.begin() + long(j));
    iso_cache_valid_.erase(iso_cache_valid_.begin() + long(j));
    applyInternal(Allocation::equalShare(jobs_.size(), config_));
    last_window_.clear();
}

std::vector<std::string>
SimulatedServer::isolationSettings(size_t j) const
{
    CLITE_CHECK(j < jobs_.size(), "job " << j << " out of " << jobs_.size());
    CLITE_CHECK(current_ != nullptr, "no allocation applied yet");
    std::vector<std::string> out;
    for (const auto& d : drivers_)
        out.push_back(d->settingFor(j));
    return out;
}

} // namespace platform
} // namespace clite
