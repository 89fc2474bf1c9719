#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <optional>

#include "cluster/fleet.h"
#include "cluster/manager.h"
#include "cluster/scheduler.h"
#include "common/rng.h"
#include "core/clite.h"
#include "core/score.h"
#include "platform/server.h"
#include "store/profile_store.h"
#include "store/signature.h"
#include "store/snapshot.h"
#include "store/warm_start.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"
#include "workloads/traffic/traffic.h"

namespace e2e {
namespace {

using namespace clite;

/**
 * Seed of the scenario design: which workloads run, at which loads and
 * phases, in which order. Search and window cost depend strongly on the
 * mix (a memcached job simulates 40x the requests of an img-dnn one),
 * and in the fleets a few nodes that the placement model over-packs
 * re-optimize every second window for the whole run, so a design drawn
 * from the workload seed made the metrics move with the seed more than
 * with the code. The design is therefore balanced and shared by every
 * seed; the workload seed drives every random stream the library
 * consumes: measurement noise, DES arrivals and service draws,
 * controller choices, trace jitter and worker faults.
 */
constexpr uint64_t kDesignSeed = 0x5EED;
/** node-search mixes are balanced within blocks of this many searches. */
constexpr int kBlock = 10;
/** Fleet windows between two ground-truth quality samples. */
constexpr int kSampleEvery = 5;
/** Nodes whose checkpoint is replayed through the store per window. */
constexpr size_t kStoreProbesPerStep = 16;
/** Observation window length of every node (QueueingSimModel default). */
constexpr double kWindowSeconds = 2.0;

void
require(bool ok, const std::string& what)
{
    if (!ok)
        throw CorrectnessError(what);
}

/** Independent generator for stream (@p tag, @p index) of @p seed. */
Rng
streamFor(uint64_t seed, uint64_t tag, uint64_t index)
{
    SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ull * (tag + 1)) ^
                  (0xBF58476D1CE4E5B9ull * (index + 1)));
    return Rng(sm.next());
}

uint64_t
fnv1a(uint64_t h, const std::string& s)
{
    for (char c : s)
        h = (h ^ uint64_t(uint8_t(c))) * 1099511628211ull;
    return h;
}

std::string
hex(uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

template <typename T>
void
shuffle(std::vector<T>& v, Rng& rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[size_t(rng.uniformInt(0, int64_t(i) - 1))]);
}

/**
 * @p n names dealt round-robin from @p names (so each name's count is
 * fixed by n alone), in shuffled order.
 */
std::vector<std::string>
deck(const std::vector<std::string>& names, size_t n, Rng& rng)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(names[i % names.size()]);
    shuffle(out, rng);
    return out;
}

/** @p n values, one drawn uniformly from each of n equal strata of
 *  [lo, hi), in shuffled order. */
std::vector<double>
strata(size_t n, double lo, double hi, Rng& rng)
{
    std::vector<double> out;
    for (size_t k = 0; k < n; ++k)
        out.push_back(lo + (hi - lo) * (double(k) + rng.uniform()) /
                               double(n));
    shuffle(out, rng);
    return out;
}

/**
 * One value per entry of @p names, stratified over [lo, hi) separately
 * within each name, so that every workload sees an even spread of
 * values.
 */
std::vector<double>
loadsByName(const std::vector<std::string>& names, double lo, double hi,
            Rng& rng)
{
    std::map<std::string, std::vector<double>> per_name;
    for (const std::string& n : names)
        per_name[n].push_back(0.0);
    for (auto& [name, values] : per_name)
        values = strata(values.size(), lo, hi, rng);
    std::vector<double> out;
    for (const std::string& n : names) {
        out.push_back(per_name[n].back());
        per_name[n].pop_back();
    }
    return out;
}

void
put(MetricMap& out, const std::string& name, double value,
    const std::string& unit)
{
    out[name] = Metric{value, unit};
}

/** Mean span duration of @p name in @p scale units per ms (0 if none). */
double
meanSpan(const Tracer& t, const char* name, double scale)
{
    const size_t n = t.count(name);
    return n > 0 ? t.totalMs(name) * scale / double(n) : 0.0;
}

/** The scheduler's view of one node, rebuilt from public state. */
cluster::NodeSnapshot
snapshotOf(size_t n, const platform::SimulatedServer* server,
           size_t capacity, double score, bool qos_met)
{
    cluster::NodeSnapshot s;
    s.node = n;
    s.capacity = capacity;
    if (server != nullptr) {
        s.job_count = server->jobCount();
        for (size_t j = 0; j < server->jobCount(); ++j) {
            const workloads::JobSpec& spec = server->job(j);
            if (spec.isLatencyCritical()) {
                ++s.lc_jobs;
                s.lc_load_sum += spec.load_fraction;
            } else {
                ++s.bg_jobs;
            }
        }
    }
    s.last_score = score;
    s.all_qos_met = qos_met;
    return s;
}

size_t
nodeCapacity(const platform::ServerConfig& config)
{
    size_t cap = size_t(config.resources()[0].units);
    for (const platform::ResourceSpec& r : config.resources())
        cap = std::min(cap, size_t(r.units));
    return cap;
}

/**
 * Outside-in store probe: capture a checkpoint, encode it, decode it
 * (checking the round trip), then look its mix up in @p live.
 * @return The captured checkpoint.
 */
template <typename Capture>
store::Snapshot
probeStore(Tracer& t, Capture&& capture, const store::ProfileStore& live,
           const platform::SimulatedServer& server, uint64_t& bytes_total)
{
    std::optional<store::Snapshot> snap;
    {
        ScopedSpan s(&t, "store.checkpoint");
        snap = capture();
    }
    std::vector<uint8_t> bytes;
    {
        ScopedSpan s(&t, "store.encode");
        bytes = store::encode(*snap);
    }
    std::optional<store::Snapshot> back;
    {
        ScopedSpan s(&t, "store.decode");
        back = store::decode(bytes);
    }
    require(back.has_value() && store::encode(*back) == bytes,
            "snapshot encode/decode round trip differs");
    bytes_total += bytes.size();
    size_t found = 0;
    {
        ScopedSpan s(&t, "store.lookup");
        found = live.nearest(store::MixSignature::of(server), 3).size();
    }
    require(found <= 3, "ProfileStore::nearest returned more than k");
    return std::move(*snap);
}

/** The store metrics every workload reports from its probes. */
void
putStoreMetrics(const Tracer& t, uint64_t bytes_total, size_t entries,
                MetricMap& out)
{
    const size_t probes = t.count("store.encode");
    put(out, "store.checkpoint_us", meanSpan(t, "store.checkpoint", 1e3),
        "us");
    put(out, "store.encode_us", meanSpan(t, "store.encode", 1e3), "us");
    put(out, "store.decode_us", meanSpan(t, "store.decode", 1e3), "us");
    put(out, "store.lookup_us", meanSpan(t, "store.lookup", 1e3), "us");
    put(out, "store.snapshot_bytes",
        probes > 0 ? double(bytes_total) / double(probes) : 0.0, "bytes");
    put(out, "store.entries", double(entries), "count");
}

/**
 * The async engine's counters (zero under lockstep and node-search) and
 * the placement outcomes (zero in node-search).
 */
void
putClusterCounters(const cluster::FleetMetrics& m,
                   const cluster::FleetSummary& s, MetricMap& out)
{
    put(out, "cluster.tasks_dispatched", double(m.tasks_dispatched), "count");
    put(out, "cluster.commit_frac",
        m.tasks_dispatched > 0
            ? double(m.tasks_committed) / double(m.tasks_dispatched)
            : 0.0,
        "fraction");
    put(out, "cluster.tasks_retried", double(m.tasks_retried), "count");
    put(out, "cluster.hedges_won", double(m.hedges_won), "count");
    put(out, "cluster.workers_lost", double(m.workers_lost), "count");
    put(out, "cluster.windows_failed", double(m.windows_failed), "count");
    put(out, "cluster.windows_dropped", double(m.windows_dropped), "count");
    put(out, "cluster.evictions", double(s.evictions), "count");
    put(out, "cluster.parked", double(s.jobs_parked), "count");
}

// ---------------------------------------------------------------------
// node-search

/** PerformanceModel decorator: one span per measure() call. */
class SpannedModel final : public workloads::PerformanceModel
{
  public:
    SpannedModel(std::unique_ptr<workloads::PerformanceModel> inner,
                 Tracer* tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    workloads::JobMeasurement
    measure(const workloads::JobSpec& job, const std::vector<int>& units,
            const platform::ServerConfig& config, Rng& rng) const override
    {
        ScopedSpan s(tracer_, "workloads.measure");
        return inner_->measure(job, units, config, rng);
    }
    std::string name() const override { return inner_->name(); }
    bool setEventBudget(uint64_t budget) override
    {
        return inner_->setEventBudget(budget);
    }
    uint64_t eventBudget() const override { return inner_->eventBudget(); }

  private:
    std::unique_ptr<workloads::PerformanceModel> inner_;
    Tracer* tracer_;
};

/**
 * Back-to-back single-node searches: each step runs a library-default
 * CliteController on a fresh server hosting a seeded mix of 3-5 jobs
 * (1-2 BG, LC loads 10-50%), DES backend in fine mode.
 */
class NodeSearch final : public Workload
{
  public:
    NodeSearch(uint64_t seed, Tracer* tracer) : seed_(seed), tracer_(tracer)
    {
    }

    void
    setup() override
    {
        capacity_ = nodeCapacity(config_);
        prepare(0);
    }

    void
    step(int /*i*/) override
    {
        core::CliteOptions options;
        options.seed = ctl_seed_;
        core::CliteController controller(options);
        last_ = controller.run(*server_);
    }

    void
    afterStep(int i) override
    {
        record();
        prepare(i + 1);
    }

    uint64_t stepWindows() const override { return last_windows_; }
    uint64_t attempted() const override { return searches_; }
    uint64_t failed() const override { return failed_; }

    Quality
    quality() const override
    {
        Quality q;
        q.qos_met_frac =
            lc_total_ > 0 ? double(lc_met_) / double(lc_total_) : 1.0;
        q.bg_perf = bg_total_ > 0 ? bg_sum_ / double(bg_total_) : 0.0;
        q.violating_window_frac =
            usable_ > 0 ? double(violating_) / double(usable_) : 0.0;
        q.windows_per_search =
            searches_ > 0 ? double(windows_) / double(searches_) : 0.0;
        q.windows_to_qos =
            to_qos_n_ > 0 ? double(to_qos_sum_) / double(to_qos_n_) : -1.0;
        return q;
    }

    std::string digest() const override { return hex(digest_); }

    void
    layerMetrics(const Tracer& t, int steps, MetricMap& out) const override
    {
        const double step_ms = t.totalMs("step");
        const double measure_ms = t.childTotalMs("step", "workloads.measure");
        put(out, "workloads.measure_calls",
            double(t.childCount("step", "workloads.measure")), "count");
        put(out, "workloads.measure_share",
            step_ms > 0 ? measure_ms / step_ms : 0.0, "fraction");
        put(out, "workloads.measure_ms", measure_ms / steps, "ms");
        put(out, "core.search_self_ms", (step_ms - measure_ms) / steps, "ms");
        put(out, "sim.coarse_window_frac",
            windows_ > 0 ? double(coarse_) / double(windows_) : 0.0,
            "fraction");
        put(out, "gp.refits", double(refits_), "count");
        put(out, "gp.probe_evals", double(probe_evals_), "count");
        put(out, "gp.warm_hit_frac",
            refits_ > 0 ? double(warm_hits_) / double(refits_) : 0.0,
            "fraction");
        put(out, "core.usable_sample_frac",
            samples_ > 0 ? double(usable_) / double(samples_) : 0.0,
            "fraction");
        put(out, "core.reopt_frac", 0.0, "fraction");
        put(out, "platform.apply_count", double(apply_count_), "count");
        put(out, "cluster.truth_ms", meanSpan(t, "cluster.truth", 1.0), "ms");
        put(out, "cluster.place_us", meanSpan(t, "cluster.place", 1e3), "us");
        putStoreMetrics(t, snapshot_bytes_, store_.size(), out);
        putClusterCounters({}, {}, out);
        // The controller's self time (core/gp/bo/opt) is one lump seen
        // from outside; only an in-program phase timer can split it.
        put(out, "trace.unattributed_frac",
            step_ms > 0 ? (step_ms - measure_ms) / step_ms : 0.0,
            "fraction");
    }

  private:
    /** One search's inputs. */
    struct Mix
    {
        std::vector<workloads::JobSpec> jobs;
        uint64_t server_seed = 0;
        uint64_t controller_seed = 0;
    };

    /**
     * The kBlock mixes of block @p b. Every block holds the same
     * multiset of job counts, LC names, LC load strata and BG names, so
     * every prefix of whole blocks, however long the run, sees the same
     * balance of mixes.
     */
    std::vector<Mix>
    designBlock(uint64_t b) const
    {
        Rng rng = streamFor(kDesignSeed, 1, b);
        Rng seeds = streamFor(seed_, 1, b);
        std::vector<int> njobs = {3, 3, 3, 4, 4, 4, 4, 5, 5, 5};
        std::vector<int> nbg = {1, 1, 1, 1, 1, 2, 2, 2, 2, 2};
        shuffle(njobs, rng);
        shuffle(nbg, rng);
        // 40 jobs, 15 of them BG: 25 LC slots, 5 per LC workload.
        const std::vector<std::string> lc =
            deck(workloads::lcWorkloadNames(), 25, rng);
        const std::vector<std::string> bg =
            deck(workloads::bgWorkloadNames(), 15, rng);
        const std::vector<double> lc_load = loadsByName(lc, 0.1, 0.5, rng);
        std::vector<Mix> block(kBlock);
        size_t next_lc = 0, next_bg = 0;
        for (int s = 0; s < kBlock; ++s) {
            for (int j = 0; j < njobs[s] - nbg[s]; ++j, ++next_lc)
                block[s].jobs.push_back(
                    workloads::lcJob(lc[next_lc], lc_load[next_lc]));
            for (int j = 0; j < nbg[s]; ++j)
                block[s].jobs.push_back(workloads::bgJob(bg[next_bg++]));
            block[s].server_seed = seeds.next();
            block[s].controller_seed = seeds.next();
        }
        return block;
    }

    /** Build the fresh server that search @p i runs on. */
    void
    prepare(int i)
    {
        if (i % kBlock == 0)
            block_ = designBlock(uint64_t(i / kBlock));
        Mix& mix = block_[size_t(i % kBlock)];
        std::unique_ptr<workloads::PerformanceModel> model =
            std::make_unique<workloads::QueueingSimModel>();
        if (tracer_ != nullptr)
            model = std::make_unique<SpannedModel>(std::move(model), tracer_);
        server_ = std::make_unique<platform::SimulatedServer>(
            config_, std::move(mix.jobs), std::move(model), mix.server_seed);
        ctl_seed_ = mix.controller_seed;
    }

    /** Check and account the search that just ran on server_. */
    void
    record()
    {
        const platform::SimulatedServer& server = *server_;
        const core::ControllerResult& r = last_;
        ++searches_;
        last_windows_ = server.observeCount();
        windows_ += last_windows_;
        apply_count_ += server.applyCount();
        samples_ += uint64_t(r.trace.size());
        for (const core::SampleRecord& s : r.trace) {
            if (!s.usable())
                continue;
            ++usable_;
            if (!s.all_qos_met)
                ++violating_;
        }
        if (int first = r.firstFeasibleSample(); first >= 0) {
            to_qos_sum_ += uint64_t(first) + 1;
            ++to_qos_n_;
        }
        refits_ += r.refits;
        probe_evals_ += r.probe_evals;
        warm_hits_ += r.warm_probe_hits;
        coarse_ += r.coarse_windows;

        for (size_t j = 0; j < server.jobCount(); ++j)
            server.job(j).isLatencyCritical() ? ++lc_total_ : ++bg_total_;
        if (!r.best.has_value()) {
            ++failed_;
            digest_ = fnv1a(digest_, "none;");
            return;
        }
        require(r.best->valid(), "search winner violates Eq. 4-6");
        require(server.currentAllocation() == *r.best,
                "server not left programmed with the search winner");
        std::vector<platform::JobObservation> truth;
        {
            ScopedSpan s(tracer_, "cluster.truth");
            truth = server.observeNoiseless(*r.best);
        }
        require(truth.size() == server.jobCount(),
                "ground truth does not cover every job");
        bool all_met = true;
        for (const platform::JobObservation& ob : truth) {
            if (ob.is_lc) {
                lc_met_ += ob.qosMet() ? 1 : 0;
                all_met = all_met && ob.qosMet();
            } else {
                bg_sum_ += ob.perfNorm();
            }
        }
        digest_ = fnv1a(digest_, r.best->key() + "|" + exact(r.best_score) +
                                     ";");
        if (tracer_ != nullptr)
            probe(server, r, all_met);
    }

    /**
     * Outside-in probes of the layers a search leaves alone: place the
     * mix's first job against this node and checkpoint the result
     * through a bench-owned store.
     */
    void
    probe(const platform::SimulatedServer& server,
          const core::ControllerResult& r, bool all_met)
    {
        std::vector<cluster::NodeSnapshot> snaps = {
            snapshotOf(0, &server, capacity_, r.best_score, all_met)};
        scheduler_.recordWindow(snaps);
        {
            ScopedSpan s(tracer_, "cluster.place");
            require(scheduler_.place(server.job(0), snaps) <= 0,
                    "placement chose a node that does not exist");
        }
        store_.put(probeStore(
            *tracer_,
            [&] {
                return store::captureSnapshot(
                    server, r, *r.best, store::ControllerPhase::Steady,
                    all_met, 0);
            },
            store_, server, snapshot_bytes_));
    }

    const platform::ServerConfig config_ =
        platform::ServerConfig::xeonSilver4114();
    uint64_t seed_;
    Tracer* tracer_;
    size_t capacity_ = 0;
    std::vector<Mix> block_; ///< The mixes of the current block.
    std::unique_ptr<platform::SimulatedServer> server_;
    uint64_t ctl_seed_ = 0;
    core::ControllerResult last_;
    cluster::ClusterScheduler scheduler_;
    store::ProfileStore store_;

    uint64_t last_windows_ = 0;
    uint64_t searches_ = 0, failed_ = 0, windows_ = 0, samples_ = 0;
    uint64_t usable_ = 0, violating_ = 0, apply_count_ = 0;
    uint64_t to_qos_sum_ = 0, to_qos_n_ = 0;
    uint64_t refits_ = 0, probe_evals_ = 0, warm_hits_ = 0, coarse_ = 0;
    uint64_t lc_total_ = 0, lc_met_ = 0, bg_total_ = 0;
    double bg_sum_ = 0.0;
    uint64_t snapshot_bytes_ = 0;
    uint64_t digest_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------------
// fleets

struct FleetShape
{
    int nodes = 32;
    harness::ModelBackend backend = harness::ModelBackend::Des;
    bool async = false;
    /** LC loads follow per-job diurnal traces (else static loads). */
    bool diurnal = true;
};

class FleetRun final : public Workload
{
  public:
    FleetRun(FleetShape shape, uint64_t seed, int quality_steps,
             Tracer* tracer)
        : shape_(shape), seed_(seed), quality_steps_(quality_steps),
          tracer_(tracer)
    {
    }

    void
    setup() override
    {
        cluster::FleetOptions options;
        options.nodes = shape_.nodes;
        options.backend = shape_.backend;
        options.seed = streamFor(seed_, 2, 0).next();
        // fleet_scaling's per-node budgets: the fleet layer is under
        // test, not per-node search quality.
        options.clite.max_iterations = 8;
        options.clite.acquisition_starts = 2;
        fleet_ = std::make_unique<cluster::Fleet>(options);

        // Two jobs per node, in admission order. Steady follows
        // fleet_scaling's mix: every tenth job is an unservable
        // masstree@100% tenant (the slots left at the default below).
        // Of the other jobs every third is BG and the rest LC; diurnal
        // LC jobs each follow their own jittered diurnal trace. Counts
        // per workload are fixed, and loads and phases are stratified
        // within each workload.
        const size_t total = 2 * size_t(shape_.nodes);
        std::vector<size_t> lc_slots, bg_slots;
        for (size_t k = 0; k < total; ++k)
            if (shape_.diurnal || k % 10 != 9)
                (k % 3 == 2 ? bg_slots : lc_slots).push_back(k);
        Rng rng = streamFor(kDesignSeed, 3, 0);
        Rng seeds = streamFor(seed_, 3, 0);
        const std::vector<std::string> lc =
            deck(workloads::lcWorkloadNames(), lc_slots.size(), rng);
        const std::vector<std::string> bg =
            deck(workloads::bgWorkloadNames(), bg_slots.size(), rng);
        const std::vector<double> base = loadsByName(lc, 0.2, 0.4, rng);

        specs_.assign(total, workloads::lcJob("masstree", 1.0));
        traces_.resize(total);
        for (size_t i = 0; i < bg_slots.size(); ++i)
            specs_[bg_slots[i]] = workloads::bgJob(bg[i]);
        if (!shape_.diurnal)
            for (size_t i = 0; i < lc_slots.size(); ++i)
                specs_[lc_slots[i]] = workloads::lcJob(lc[i], base[i]);
        const std::vector<double> phase =
            shape_.diurnal ? loadsByName(lc, 0.0, 2.0 * std::numbers::pi, rng)
                           : std::vector<double>();
        for (size_t i = 0; i < phase.size(); ++i) {
            const size_t k = lc_slots[i];
            workloads::traffic::JitteredDiurnalTrace::Options o;
            o.base = base[i];
            o.amplitude = 0.5 * o.base;
            o.period_seconds = 80.0;
            o.phase_radians = phase[i];
            traces_[k] = std::make_unique<
                workloads::traffic::JitteredDiurnalTrace>(seeds.next(), o);
            specs_[k] = workloads::traffic::withTrace(
                workloads::lcJob(lc[i], o.base), *traces_[k],
                o.period_seconds);
        }
        // Every job is submitted before the first window. fleet_scaling
        // submits in slices over the first windows; at 1024 nodes that
        // let best-fit placement pile whole slices onto the few nodes
        // with the best predicted headroom, which then re-optimize every
        // second window for the rest of the run (README.md, findings).
        for (const workloads::JobSpec& spec : specs_)
            ids_.push_back(fleet_->admit(spec));

        if (shape_.async) {
            cluster::AsyncOptions ao;
            ao.workers = std::max(4, shape_.nodes / 4);
            ao.max_retries = 6;
            ao.faults.worker_loss_prob = 0.05;
            ao.fault_seed = streamFor(seed_, 4, 0).next();
            engine_ = std::make_unique<cluster::AsyncFleetEngine>(*fleet_, ao);
        }
        capacity_ = nodeCapacity(platform::ServerConfig::xeonSilver4114());
        truth_.assign(size_t(shape_.nodes), {});
    }

    void
    step(int i) override
    {
        if (shape_.diurnal)
            for (size_t k = 0; k < ids_.size(); ++k)
                if (traces_[k] != nullptr &&
                    fleet_->job(ids_[k]).state == cluster::JobState::Placed)
                    fleet_->setJobLoad(
                        ids_[k], traces_[k]->loadAt(kWindowSeconds * i));
        if (engine_ != nullptr)
            engine_->run(1);
        else
            fleet_->tick();
    }

    void
    afterStep(int i) override
    {
        if (engine_ != nullptr) {
            const cluster::FleetMetrics& m = engine_->metrics();
            last_windows_ = m.tasks_committed - committed_;
            committed_ = m.tasks_committed;
            failed_ = m.windows_failed + m.windows_dropped;
        } else {
            last_windows_ = 0;
            for (size_t n = 0; n < fleet_->nodeCount(); ++n)
                last_windows_ += fleet_->nodeServer(n) != nullptr ? 1 : 0;
            committed_ += last_windows_;
        }
        checkRegistry();

        const bool every = (i + 1) % kSampleEvery == 0;
        const bool sample =
            i < quality_steps_ && (every || i + 1 == quality_steps_);
        if (sample || tracer_ != nullptr)
            computeTruth();
        if (every)
            checkQueue();
        if (sample)
            sampleQuality();
        if (tracer_ != nullptr)
            probe(i);
    }

    uint64_t stepWindows() const override { return last_windows_; }
    uint64_t attempted() const override { return committed_ + failed_; }
    uint64_t failed() const override { return failed_; }

    Quality
    quality() const override
    {
        Quality q;
        q.qos_met_frac = samples_ > 0 ? qos_sum_ / samples_ : 0.0;
        q.bg_perf = samples_ > 0 ? bg_sum_ / samples_ : 0.0;
        uint64_t qos_windows = 0, violating = 0, search_windows = 0,
                 searches = 0;
        forEachLiveNode([&](const platform::SimulatedServer& server,
                            const core::OnlineManager& m) {
            qos_windows += uint64_t(m.qosWindows());
            violating += uint64_t(m.violatingWindows());
            search_windows += server.observeCount() - uint64_t(m.windows());
            searches += 1 + uint64_t(m.reoptimizations());
        });
        q.violating_window_frac =
            qos_windows > 0 ? double(violating) / double(qos_windows) : 0.0;
        q.windows_per_search =
            searches > 0 ? double(search_windows) / double(searches) : 0.0;
        return q;
    }

    std::string digest() const override
    {
        return hex(fnv1a(1469598103934665603ull, fleet_->digest()));
    }

    void
    layerMetrics(const Tracer& t, int steps, MetricMap& out) const override
    {
        uint64_t refits = 0, probe_evals = 0, warm = 0, coarse = 0;
        uint64_t observed = 0, windows = 0, reopts = 0, applies = 0;
        uint64_t samples = 0, usable = 0;
        forEachLiveNode([&](const platform::SimulatedServer& server,
                            const core::OnlineManager& m) {
            refits += m.refits();
            probe_evals += m.probeEvals();
            warm += m.warmProbeHits();
            coarse += m.coarseWindows();
            observed += server.observeCount();
            windows += uint64_t(m.windows());
            reopts += uint64_t(m.reoptimizations());
            applies += server.applyCount();
            for (const core::SampleRecord& s : m.lastResult().trace) {
                ++samples;
                usable += s.usable() ? 1 : 0;
            }
        });
        put(out, "workloads.measure_calls", 0.0, "count");
        put(out, "workloads.measure_share", 0.0, "fraction");
        put(out, "sim.coarse_window_frac",
            observed > 0 ? double(coarse) / double(observed) : 0.0,
            "fraction");
        put(out, "gp.refits", double(refits), "count");
        put(out, "gp.probe_evals", double(probe_evals), "count");
        put(out, "gp.warm_hit_frac",
            refits > 0 ? double(warm) / double(refits) : 0.0, "fraction");
        put(out, "core.usable_sample_frac",
            samples > 0 ? double(usable) / double(samples) : 0.0,
            "fraction");
        put(out, "core.reopt_frac",
            windows > 0 ? double(reopts) / double(windows) : 0.0,
            "fraction");
        put(out, "platform.apply_count", double(applies), "count");

        const double step_ms = t.totalMs("step");
        const double truth_ms = meanSpan(t, "cluster.truth", 1.0);
        put(out, "cluster.truth_ms", truth_ms, "ms");
        put(out, "cluster.place_us", meanSpan(t, "cluster.place", 1e3), "us");
        putStoreMetrics(t, snapshot_bytes_, fleet_->profileStore().size(),
                        out);

        putClusterCounters(engine_ != nullptr ? engine_->metrics()
                                              : cluster::FleetMetrics{},
                           fleet_->summarize(), out);

        // Inside a window the fleet makes one truth call and one
        // checkpoint per committed node window; the outside replays
        // estimate both. Everything else (search probes, GP, monitoring
        // windows, dispatch, placement) stays one unattributed lump.
        const double windows_per_step = double(committed_) / steps;
        const double attributed_ms =
            truth_ms + meanSpan(t, "store.checkpoint", 1.0) * windows_per_step;
        const double window_ms = step_ms / steps;
        put(out, "trace.unattributed_frac",
            window_ms > 0 ? std::max(0.0, 1.0 - attributed_ms / window_ms)
                          : 0.0,
            "fraction");
    }

  private:
    template <typename F>
    void
    forEachLiveNode(F&& f) const
    {
        for (size_t n = 0; n < fleet_->nodeCount(); ++n) {
            const platform::SimulatedServer* server = fleet_->nodeServer(n);
            const core::OnlineManager* m = fleet_->nodeManager(n);
            // observeCount() > 0 once the initial search has run.
            if (server != nullptr && m != nullptr && server->observeCount() > 0)
                f(*server, *m);
        }
    }

    /** Every admitted job is placed exactly once or not at all, and
     *  every node's programmed allocation satisfies Eq. 4-6. */
    void
    checkRegistry() const
    {
        const std::vector<cluster::FleetJob>& jobs = fleet_->jobs();
        std::vector<int> seen(jobs.size() + 1, 0);
        for (size_t n = 0; n < fleet_->nodeCount(); ++n) {
            const std::vector<uint64_t>& ids = fleet_->nodeJobIds(n);
            const platform::SimulatedServer* server = fleet_->nodeServer(n);
            require((server == nullptr) == ids.empty(),
                    "node " + std::to_string(n) + " server/job list mismatch");
            if (server == nullptr)
                continue;
            const platform::Allocation& a = server->currentAllocation();
            require(server->jobCount() == ids.size() &&
                        a.jobs() == ids.size() && a.valid(),
                    "node " + std::to_string(n) +
                        " allocation violates Eq. 4-6");
            for (uint64_t id : ids) {
                require(id >= 1 && id <= jobs.size(), "unknown job id");
                ++seen[id];
                const cluster::FleetJob& job = jobs[id - 1];
                require(job.state == cluster::JobState::Placed &&
                            job.node == int(n),
                        "job " + std::to_string(id) + " registry mismatch");
            }
        }
        for (const cluster::FleetJob& job : jobs)
            require(seen[job.id] ==
                        (job.state == cluster::JobState::Placed ? 1 : 0),
                    "job " + std::to_string(job.id) +
                        " hosted a wrong number of times");
    }

    /** Every pending job is queued exactly once; no other job is. */
    void
    checkQueue() const
    {
        const std::string d = fleet_->digest();
        const size_t open = d.rfind("queue[");
        require(open != std::string::npos, "digest has no queue");
        const size_t close = d.find(']', open);
        std::vector<int> queued(fleet_->jobs().size() + 1, 0);
        const std::string list = d.substr(open + 6, close - open - 6);
        size_t pos = 0;
        while (pos < list.size()) {
            const size_t comma = std::min(list.find(',', pos), list.size());
            const uint64_t id = std::stoull(list.substr(pos, comma - pos));
            require(id >= 1 && id < queued.size(), "queued unknown job");
            ++queued[id];
            pos = comma + 1;
        }
        for (const cluster::FleetJob& job : fleet_->jobs())
            require(queued[job.id] ==
                        (job.state == cluster::JobState::Pending ? 1 : 0),
                    "job " + std::to_string(job.id) + " queued wrongly");
    }

    /** Ground truth of what every node runs now (noise-free). */
    void
    computeTruth()
    {
        ScopedSpan s(tracer_, "cluster.truth");
        for (size_t n = 0; n < fleet_->nodeCount(); ++n) {
            const platform::SimulatedServer* server = fleet_->nodeServer(n);
            if (server == nullptr)
                truth_[n].clear();
            else
                truth_[n] =
                    server->observeNoiseless(server->currentAllocation());
        }
    }

    /** QoS over admitted LC jobs and perf over admitted BG jobs; jobs
     *  not running (pending or parked) count as misses / zero. */
    void
    sampleQuality()
    {
        uint64_t lc = 0, lc_met = 0, bg = 0;
        double bg_perf = 0.0;
        for (size_t n = 0; n < fleet_->nodeCount(); ++n) {
            const std::vector<uint64_t>& ids = fleet_->nodeJobIds(n);
            require(truth_[n].size() == ids.size(), "truth shape mismatch");
            for (const platform::JobObservation& ob : truth_[n]) {
                if (ob.is_lc)
                    lc_met += ob.qosMet() ? 1 : 0;
                else
                    bg_perf += ob.perfNorm();
            }
        }
        for (const cluster::FleetJob& job : fleet_->jobs())
            job.spec.isLatencyCritical() ? ++lc : ++bg;
        qos_sum_ += lc > 0 ? double(lc_met) / double(lc) : 1.0;
        bg_sum_ += bg > 0 ? bg_perf / double(bg) : 0.0;
        ++samples_;
    }

    /**
     * Outside-in probes: place one job with a bench-owned scheduler fed
     * snapshots rebuilt from public node state, and replay a few nodes'
     * checkpoints through the store codec and the live store.
     */
    void
    probe(int i)
    {
        std::vector<cluster::NodeSnapshot> snaps;
        snaps.reserve(fleet_->nodeCount());
        for (size_t n = 0; n < fleet_->nodeCount(); ++n) {
            const platform::SimulatedServer* server = fleet_->nodeServer(n);
            double score = 0.0;
            bool met = false;
            if (!truth_[n].empty()) {
                const core::ScoreBreakdown sb =
                    core::scoreObservations(truth_[n]);
                score = sb.score;
                met = sb.all_qos_met;
            }
            snaps.push_back(snapshotOf(n, server, capacity_, score, met));
        }
        scheduler_.recordWindow(snaps);
        {
            ScopedSpan s(tracer_, "cluster.place");
            const int n = scheduler_.place(
                specs_[size_t(i) % specs_.size()], snaps);
            require(n < int(fleet_->nodeCount()),
                    "placement chose a node that does not exist");
        }

        size_t probed = 0;
        for (size_t k = 0; k < fleet_->nodeCount() &&
                           probed < kStoreProbesPerStep;
             ++k) {
            const size_t n = (store_cursor_ + k) % fleet_->nodeCount();
            const platform::SimulatedServer* server = fleet_->nodeServer(n);
            const core::OnlineManager* m = fleet_->nodeManager(n);
            if (server == nullptr || m == nullptr ||
                server->observeCount() == 0)
                continue;
            probeStore(
                *tracer_, [m] { return m->makeCheckpoint(); },
                fleet_->profileStore(), *server, snapshot_bytes_);
            ++probed;
        }
        store_cursor_ = (store_cursor_ + kStoreProbesPerStep) %
                        fleet_->nodeCount();
    }

    FleetShape shape_;
    uint64_t seed_;
    int quality_steps_;
    Tracer* tracer_;
    size_t capacity_ = 0;
    std::unique_ptr<cluster::Fleet> fleet_;
    std::unique_ptr<cluster::AsyncFleetEngine> engine_;
    std::vector<workloads::JobSpec> specs_;
    std::vector<std::unique_ptr<workloads::traffic::JitteredDiurnalTrace>>
        traces_;
    std::vector<uint64_t> ids_; ///< Fleet ids of the admitted specs_.
    std::vector<std::vector<platform::JobObservation>> truth_;
    cluster::ClusterScheduler scheduler_;

    uint64_t committed_ = 0, failed_ = 0, last_windows_ = 0;
    int samples_ = 0;
    double qos_sum_ = 0.0, bg_sum_ = 0.0;
    uint64_t snapshot_bytes_ = 0;
    size_t store_cursor_ = 0;
};

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "node-search", "fleet-diurnal", "fleet-diurnal-async",
        "fleet-steady-1k"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, uint64_t seed, int quality_steps,
             Tracer* tracer)
{
    if (name == "node-search")
        return std::make_unique<NodeSearch>(seed, tracer);
    FleetShape shape;
    if (name == "fleet-diurnal") {
        // defaults
    } else if (name == "fleet-diurnal-async") {
        shape.async = true;
    } else if (name == "fleet-steady-1k") {
        shape.nodes = 1024;
        shape.backend = harness::ModelBackend::Analytic;
        shape.async = true;
        shape.diurnal = false;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return std::make_unique<FleetRun>(shape, seed, quality_steps, tracer);
}

} // namespace e2e
