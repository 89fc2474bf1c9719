#include "core/clite.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "bo/acquisition.h"
#include "common/error.h"
#include "common/log.h"
#include "gp/gaussian_process.h"
#include "opt/projected_gradient.h"
#include "opt/simplex.h"
#include "stats/sampling.h"
#include "stats/summary.h"

namespace clite {
namespace core {

namespace {

/** Refit the GP hyper-parameters every this many BO iterations. */
constexpr int kGpFitEvery = 3;
/** Random restarts per hyper-parameter fit. */
constexpr int kGpRestarts = 1;
/** How many top candidates the validation re-measures. */
constexpr size_t kValidationCandidates = 3;

/**
 * Round a continuous normalized configuration to a valid Allocation,
 * optionally pinning one job's allocation (dropout-copy) and freezing
 * dead-knob resource columns at their actually-programmed partition.
 *
 * @param flat Normalized job-major coordinates.
 * @param fixed_job Job whose allocation is pinned (-1 for none).
 * @param fixed_units Pinned units per resource (when fixed_job >= 0).
 * @param dead Per-resource dead-knob mask (empty for none).
 * @param frozen Actually-programmed allocation supplying dead columns.
 */
platform::Allocation
roundWithPinning(const std::vector<double>& flat, size_t njobs,
                 const platform::ServerConfig& config, int fixed_job,
                 const std::vector<int>& fixed_units,
                 const std::vector<char>& dead = {},
                 const platform::Allocation* frozen = nullptr)
{
    platform::Allocation alloc(njobs, config);
    const size_t nres = config.resourceCount();
    for (size_t r = 0; r < nres; ++r) {
        if (r < dead.size() && dead[r] && frozen != nullptr) {
            for (size_t j = 0; j < njobs; ++j)
                alloc.set(j, r, frozen->get(j, r));
            continue;
        }
        int units = config.resource(r).units;
        std::vector<double> col(njobs);
        std::vector<int> lo(njobs, 1);
        std::vector<int> hi(njobs, units - int(njobs) + 1);
        for (size_t j = 0; j < njobs; ++j)
            col[j] = flat[j * nres + r] * double(units);
        if (fixed_job >= 0) {
            lo[size_t(fixed_job)] = fixed_units[r];
            hi[size_t(fixed_job)] = fixed_units[r];
            col[size_t(fixed_job)] = double(fixed_units[r]);
        }
        std::vector<int> rounded =
            opt::roundToIntegerComposition(col, units, lo, hi);
        for (size_t j = 0; j < njobs; ++j)
            alloc.set(j, r, rounded[j]);
    }
    alloc.validate();
    return alloc;
}

/** Uniformly random valid allocation. */
platform::Allocation
randomAllocation(size_t njobs, const platform::ServerConfig& config,
                 Rng& rng)
{
    platform::Allocation alloc(njobs, config);
    for (size_t r = 0; r < config.resourceCount(); ++r) {
        std::vector<int> parts = stats::sampleComposition(
            config.resource(r).units, int(njobs), rng, 1);
        for (size_t j = 0; j < njobs; ++j)
            alloc.set(j, r, parts[j]);
    }
    alloc.validate();
    return alloc;
}

/**
 * Per-job "how well is it doing" metric for dropout selection: QoS
 * headroom for LC jobs (capped at 1 once met), normalized throughput
 * for BG jobs.
 */
double
jobGoodness(const platform::JobObservation& ob)
{
    if (ob.is_lc)
        return std::min(1.0, ob.qosRatio());
    return ob.perfNorm();
}

} // namespace

CliteController::CliteController(CliteOptions options)
    : options_(std::move(options))
{
    CLITE_CHECK(options_.max_iterations >= 0, "max_iterations must be >= 0");
    CLITE_CHECK(options_.termination_threshold >= 0.0,
                "termination threshold must be >= 0");
    CLITE_CHECK(options_.acquisition_starts >= 1,
                "need at least one acquisition start");
    CLITE_CHECK(options_.dropout_random_prob >= 0.0 &&
                    options_.dropout_random_prob <= 1.0,
                "dropout_random_prob must be in [0,1]");
    CLITE_CHECK(options_.apply_retries >= 0,
                "apply_retries must be >= 0");
}

ControllerResult
CliteController::run(platform::SimulatedServer& server)
{
    return search(server, std::nullopt);
}

ControllerResult
CliteController::runWarm(platform::SimulatedServer& server,
                         const WarmStart& warm)
{
    return search(server, std::nullopt, &warm);
}

ControllerResult
CliteController::reoptimize(platform::SimulatedServer& server,
                            const platform::Allocation& incumbent)
{
    return search(server, incumbent);
}

ControllerResult
CliteController::reoptimizeWarm(platform::SimulatedServer& server,
                                const platform::Allocation& incumbent,
                                const WarmStart& warm)
{
    return search(server, incumbent, &warm);
}

ControllerResult
CliteController::search(platform::SimulatedServer& server,
                        std::optional<platform::Allocation> incumbent,
                        const WarmStart* warm)
{
    const platform::ServerConfig& config = server.config();
    const size_t njobs = server.jobCount();
    const size_t nres = config.resourceCount();
    const size_t dim = njobs * nres;

    // Iso-Perf is sampled when a search starts (the paper's
    // initialization), so every window of this search divides by a
    // baseline measured at the search's own loads.
    server.sampleIsolationBaselines();

    Rng rng(options_.seed);
    std::vector<SampleRecord> trace;
    std::set<std::string> seen;

    // Fault tolerance engages only when the server can actually
    // inject faults; on a fault-free server every path below is
    // bit-identical to the non-resilient search.
    const bool resilient = options_.resilient && server.faultsEnabled();

    // Budget-bounded search (bo/budget.h): inert unless a finite
    // positive budget is configured, so the unbudgeted search stays
    // bit-identical to the EI-threshold baseline. Early-abort engages
    // only after the bootstrap — the per-job maximum-allocation
    // extrema double as the infeasibility test, and an aborted
    // (quarantined) extremum could not prove anything.
    bo::BudgetPolicy budget(options_.budget);
    const double window_s = options_.budget.window_seconds;
    const bool budgeted = budget.active();
    bool budget_stopped = false;
    bool allow_abort = false;

    // Refit/coarse observability, surfaced as ControllerResult
    // counters at every exit path.
    uint64_t stat_refits = 0;
    uint64_t stat_probe_evals = 0;
    uint64_t stat_coarse_windows = 0;

    // Coarse search windows (docs/MODEL.md): with a configured search
    // event budget and a model that honors it, every probe window of
    // this search — bootstrap sweep, BO iteration, polish move — is
    // measured under the budget. The guard restores fine mode on
    // every exit path, and the validation phase releases it before
    // re-measuring candidates, so no window whose score the caller
    // keeps (validated candidates, monitoring ticks, checkpoints) is
    // ever coarse.
    struct FineModeGuard
    {
        platform::SimulatedServer& server;
        bool active;
        void release()
        {
            if (active) {
                server.setMeasurementEventBudget(0);
                active = false;
            }
        }
        ~FineModeGuard() { release(); }
    } coarse_guard{server,
                   options_.search_event_budget > 0 &&
                       server.setMeasurementEventBudget(
                           options_.search_event_budget)};

    // Budgeted evaluation with mid-window early-abort: apply, peek at
    // the partial counters a fraction into the window, and cancel the
    // window — charging exactly the elapsed cost — when the partial
    // tail already proves it clearly infeasible. Aborted samples are
    // quarantined like any fault: never fed to the GP, never eligible
    // to win.
    auto evaluate_budgeted =
        [&](const platform::Allocation& alloc) -> SampleRecord {
        server.apply(alloc);
        int retries = 0;
        double backoff_ms = 0.0;
        while (resilient && !server.lastApplyOk() &&
               retries < options_.apply_retries) {
            backoff_ms += kRetryBackoffMs * double(1 << retries);
            ++retries;
            server.apply(alloc);
        }
        if (server.lastApplyOk() && options_.budget.early_abort &&
            allow_abort) {
            const double f = options_.budget.abort_check_fraction;
            std::vector<platform::JobObservation> partial =
                server.observePartialWindow(f);
            std::vector<bo::PartialTailSample> tails;
            tails.reserve(partial.size());
            for (const platform::JobObservation& ob : partial) {
                bo::PartialTailSample t;
                t.p95_ms = ob.p95_ms;
                t.target_ms = ob.qos_target_ms;
                t.is_lc = ob.is_lc;
                t.valid = ob.valid && !ob.stale;
                t.fraction = ob.window_fraction;
                tails.push_back(t);
            }
            if (bo::BudgetPolicy::shouldAbort(tails, options_.budget)) {
                ScoreBreakdown sb = scoreObservations(partial);
                SampleRecord rec(alloc, sb.score, false,
                                 std::move(partial));
                rec.status = SampleStatus::Aborted;
                rec.apply_retries = retries;
                rec.backoff_ms = backoff_ms;
                rec.cost_seconds = f * window_s;
                budget.chargeAborted(f);
                return rec;
            }
        }
        SampleRecord rec =
            recordFromObservations(server, alloc, server.observe());
        rec.apply_retries = retries;
        rec.backoff_ms = backoff_ms;
        rec.cost_seconds = window_s;
        budget.chargeWindow(rec.usable() && rec.all_qos_met);
        return rec;
    };

    auto evaluate_raw = [&](const platform::Allocation& alloc) {
        if (coarse_guard.active)
            ++stat_coarse_windows;
        if (budgeted)
            return evaluate_budgeted(alloc);
        SampleRecord rec =
            resilient ? evaluateSampleResilient(server, alloc,
                                                options_.apply_retries)
                      : evaluateSample(server, alloc);
        // Every transient-apply retry re-ran the full window.
        rec.cost_seconds = window_s * double(1 + rec.apply_retries);
        return rec;
    };
    auto evaluate_unique = [&](const platform::Allocation& alloc) -> bool {
        if (!seen.insert(alloc.key()).second)
            return false;
        trace.push_back(evaluate_raw(alloc));
        return true;
    };
    // Indices of quarantine-free samples — the only ones that may
    // win the search (or serve as the incumbent).
    auto usable_indices = [&]() {
        std::vector<size_t> idx;
        idx.reserve(trace.size());
        for (size_t i = 0; i < trace.size(); ++i)
            if (trace[i].usable())
                idx.push_back(i);
        return idx;
    };
    // Surrogate training set: usable samples plus early-aborted ones.
    // An aborted window's partial reading is real telemetry that
    // PROVES a QoS violation (mode-1 score), so feeding it keeps the
    // acquisition away from the violating region instead of paying
    // for the same abort again; faulted telemetry stays excluded.
    // Unbudgeted traces contain no Aborted records, so this set is
    // identical to usable_indices() there.
    auto surrogate_indices = [&]() {
        std::vector<size_t> idx;
        idx.reserve(trace.size());
        for (size_t i = 0; i < trace.size(); ++i)
            if (trace[i].usable() ||
                trace[i].status == SampleStatus::Aborted)
                idx.push_back(i);
        return idx;
    };
    // Stamp the observability counters onto a finished result.
    auto finish = [&](ControllerResult r) {
        r.refits = stat_refits;
        r.probe_evals = stat_probe_evals;
        r.coarse_windows = stat_coarse_windows;
        return r;
    };

    // Warm-start priors must match the search space exactly; the
    // store-side conversion (store/warm_start.h) already filters by
    // signature, so a mismatch here is a programming error.
    if (warm != nullptr) {
        auto check_shape = [&](const platform::Allocation& a) {
            CLITE_CHECK(a.jobs() == njobs && a.resources() == nres,
                        "warm-start configuration shape "
                            << a.jobs() << "x" << a.resources()
                            << " does not match the server's " << njobs
                            << "x" << nres);
        };
        if (warm->incumbent.has_value())
            check_shape(*warm->incumbent);
        for (const platform::Allocation& a : warm->configs)
            check_shape(a);
    }

    // ---- Bootstrap (Sec. 4, "Selecting Bootstrapping Configuration
    // Samples"): equal division + per-job maximum-allocation extrema,
    // preceded by any warm-start priors (the prior run's incumbent is
    // the strongest single guess, then its best configurations). When
    // the prior proved this exact mix feasible, the extrema — whose
    // only purpose is the infeasibility test — are skipped, which is
    // where warm starts save most of their observation windows.
    std::vector<size_t> extremum_sample_of_job(njobs, size_t(-1));
    if (options_.informed_bootstrap) {
        if (warm != nullptr && warm->incumbent.has_value())
            evaluate_unique(*warm->incumbent);
        if (incumbent.has_value())
            evaluate_unique(*incumbent);
        if (warm != nullptr)
            for (const platform::Allocation& a : warm->configs)
                evaluate_unique(a);
        evaluate_unique(platform::Allocation::equalShare(njobs, config));
        const bool skip_extrema = warm != nullptr && warm->trusted_feasible;
        for (size_t j = 0; j < njobs && !skip_extrema; ++j) {
            platform::Allocation ext =
                platform::Allocation::maxFor(j, njobs, config);
            if (evaluate_unique(ext))
                extremum_sample_of_job[j] = trace.size() - 1;
        }
    } else {
        // Ablation: random bootstrap of the same size.
        size_t want = njobs + 1 + (incumbent.has_value() ? 1 : 0);
        int guard = 0;
        while (trace.size() < want && guard++ < 200)
            evaluate_unique(randomAllocation(njobs, config, rng));
    }

    // Under faults the whole bootstrap can come back quarantined
    // (e.g. an apply-failure burst): re-measure the equal share a few
    // times — without it the surrogate has nothing to stand on.
    if (resilient && usable_indices().empty()) {
        for (int attempt = 0; attempt < 3; ++attempt) {
            trace.push_back(evaluate_raw(
                platform::Allocation::equalShare(njobs, config)));
            if (trace.back().usable())
                break;
        }
    }

    // ---- Early infeasibility detection: an LC job that misses QoS
    // even with the maximum possible allocation cannot be co-located
    // with this job set (paper: schedule it elsewhere, no BO cycles).
    // Only a clean (usable) extremum observation may prove it — a
    // faulted window must not condemn the whole co-location.
    bool infeasible = false;
    std::vector<size_t> infeasible_jobs;
    for (size_t j = 0; j < njobs && options_.informed_bootstrap; ++j) {
        size_t s = extremum_sample_of_job[j];
        if (s == size_t(-1) || !server.job(j).isLatencyCritical())
            continue;
        if (!trace[s].usable())
            continue;
        const platform::JobObservation& ob = trace[s].observations[j];
        if (!ob.qosMet()) {
            CLITE_LOG_INFO("job " << ob.job_name
                                  << " misses QoS even at max allocation ("
                                  << ob.p95_ms << "ms > " << ob.qos_target_ms
                                  << "ms); co-location infeasible");
            infeasible = true;
            infeasible_jobs.push_back(j);
        }
    }
    if (infeasible || njobs == 1 || options_.max_iterations == 0 ||
        usable_indices().empty())
        return finish(finalizeResult(server, std::move(trace), infeasible,
                                     std::move(infeasible_jobs)));

    // The bootstrap (and its infeasibility evidence) is complete;
    // probe windows from here on may be cancelled mid-measurement.
    allow_abort = true;

    // ---- BO loop (Algorithm 1 specialized to the partition lattice).
    std::unique_ptr<gp::Kernel> kernel =
        gp::makeKernel(options_.kernel, dim, 0.3);
    kernel->setIsotropic(!options_.ard);
    gp::GaussianProcess surrogate(std::move(kernel), 1e-4);
    std::unique_ptr<bo::Acquisition> acquisition =
        bo::makeAcquisition(options_.acquisition, options_.ei_zeta);

    // The EI-drop termination threshold scales with the number of
    // co-located jobs (the EI curve drops more slowly in bigger spaces).
    const double threshold =
        options_.termination_threshold * std::max(1.0, double(njobs) / 3.0);
    int below_threshold_streak = 0;

    // Dead-knob state: a resource whose isolation tool permanently
    // fails collapses to a frozen column — the search continues over
    // the remaining dimensions instead of aborting.
    std::vector<char> dead(nres, 0);
    size_t dead_count = 0;

    for (int iter = 0; iter < options_.max_iterations; ++iter) {
        // Budget gate: a probe costs up to one full window; starting
        // one the residual budget cannot pay for would overrun it.
        if (budgeted && !budget.canAffordWindow()) {
            CLITE_LOG_DEBUG("budget exhausted at iteration "
                            << iter << ": " << budget.charged() << "s of "
                            << budget.budget() << "s charged");
            budget_stopped = true;
            break;
        }
        if (resilient) {
            bool grew = false;
            for (size_t r : server.deadResources())
                if (!dead[r]) {
                    dead[r] = 1;
                    ++dead_count;
                    grew = true;
                    CLITE_LOG_INFO(
                        "resource knob "
                        << platform::resourceName(
                               config.resource(r).kind)
                        << " died; collapsing dimension");
                }
            if (grew && dead_count < nres) {
                // Re-seed the collapsed search: the best usable
                // configuration with dead columns snapped to what is
                // actually programmed.
                std::vector<size_t> usable = usable_indices();
                if (!usable.empty()) {
                    size_t b = usable[0];
                    for (size_t i : usable)
                        if (trace[i].score > trace[b].score)
                            b = i;
                    platform::Allocation reseed = trace[b].alloc;
                    const platform::Allocation& frozen =
                        server.currentAllocation();
                    for (size_t r = 0; r < nres; ++r)
                        if (dead[r])
                            for (size_t j = 0; j < njobs; ++j)
                                reseed.set(j, r, frozen.get(j, r));
                    evaluate_unique(reseed);
                }
            }
            if (dead_count >= nres)
                break; // nothing left to program
        }

        // Update the surrogate from the usable samples only —
        // quarantined observations describe faults, not the score
        // surface. fitIncremental extends the Cholesky factor in
        // O(n²) while the usable list only grows at the tail (the
        // common case); a quarantined sample changes the filtered
        // prefix and falls back to a full refit, so a faulted
        // observation can never linger in the factor.
        std::vector<size_t> usable = usable_indices();
        if (usable.empty())
            break;
        std::vector<size_t> train = surrogate_indices();
        std::vector<linalg::Vector> xs;
        std::vector<double> ys;
        xs.reserve(train.size());
        for (size_t i : train) {
            xs.push_back(trace[i].alloc.flattenNormalized());
            ys.push_back(trace[i].score);
        }
        surrogate.fitIncremental(xs, ys);
        if (iter % kGpFitEvery == 0) {
            gp::GpFitOptions fo;
            fo.restarts = kGpRestarts;
            fo.max_iters = 50;
            surrogate.optimizeHyperparameters(rng, fo);
            ++stat_refits;
            stat_probe_evals += surrogate.lastFitStats().probe_evals;
        }

        size_t best_idx = usable[0];
        for (size_t i : usable)
            if (trace[i].score > trace[best_idx].score)
                best_idx = i;
        const double incumbent_score = trace[best_idx].score;

        // ---- Dropout-copy: pin the best-performing job — the one
        // that has met or is closest to meeting its QoS in the best
        // configuration so far — at its allocation in that incumbent,
        // and search over the remaining jobs. Once several jobs meet
        // QoS their goodness ties at 1, so ties break toward the job
        // holding the FEWEST resources: it performs best on least, so
        // freezing it frees the most exploration for the others. With
        // a small probability a random job is pinned instead (the
        // residual stochasticity behind Fig. 11's small variability).
        int fixed_job = -1;
        std::vector<int> fixed_units(nres, 1);
        if (options_.dropout && njobs >= 3) {
            const auto& incumbent_rec = trace[best_idx];
            size_t chosen;
            if (rng.bernoulli(options_.dropout_random_prob)) {
                chosen = size_t(rng.uniformInt(0, int64_t(njobs) - 1));
            } else {
                chosen = 0;
                double best_g = -1.0;
                double best_share = 1e100;
                for (size_t j = 0; j < njobs; ++j) {
                    double g =
                        jobGoodness(incumbent_rec.observations[j]);
                    double share = 0.0;
                    for (size_t r = 0; r < nres; ++r)
                        share += double(incumbent_rec.alloc.get(j, r)) /
                                 double(config.resource(r).units);
                    if (g > best_g + 1e-9 ||
                        (g > best_g - 1e-9 && share < best_share)) {
                        best_g = g;
                        best_share = share;
                        chosen = j;
                    }
                }
            }
            // Pinning must leave every other job one unit of everything.
            bool pinnable = true;
            for (size_t r = 0; r < nres; ++r) {
                int pinned = incumbent_rec.alloc.get(chosen, r);
                if (config.resource(r).units - pinned < int(njobs) - 1)
                    pinnable = false;
            }
            if (pinnable) {
                fixed_job = int(chosen);
                for (size_t r = 0; r < nres; ++r)
                    fixed_units[r] = incumbent_rec.alloc.get(chosen, r);
            }
        }

        // ---- Constrained acquisition maximization (Eq. 4–6) on the
        // continuous relaxation in normalized coordinates.
        std::vector<opt::SimplexBlock> blocks;
        std::vector<size_t> free_jobs;
        for (size_t j = 0; j < njobs; ++j)
            if (int(j) != fixed_job)
                free_jobs.push_back(j);
        for (size_t r = 0; r < nres; ++r) {
            if (dead[r])
                continue; // collapsed dimension: no block, held fixed
            int units = config.resource(r).units;
            int free_total =
                units - (fixed_job >= 0 ? fixed_units[r] : 0);
            opt::SimplexBlock blk;
            blk.total = double(free_total) / double(units);
            for (size_t j : free_jobs) {
                blk.indices.push_back(j * nres + r);
                blk.lo.push_back(1.0 / double(units));
                blk.hi.push_back(
                    double(free_total - int(free_jobs.size()) + 1) /
                    double(units));
            }
            blocks.push_back(std::move(blk));
        }

        opt::PgOptions pg;
        pg.max_iters = 40;
        pg.fd_step = 0.02;
        opt::ProjectedGradientOptimizer optimizer(blocks, dim, pg);

        // Cost-aware acquisition (budgeted runs only): feasibility-
        // weighted EI per expected window cost, EI·(1−p)/E[cost]. The
        // violation probability at a candidate is the posterior mass
        // below the mode-1/mode-2 score boundary (0.5): probable
        // violators are cheap (their window aborts early) but an
        // aborted sample can never win, so their expected useful
        // improvement carries the (1−p) weight — without it the
        // normalization would chase the violating region precisely
        // because probing it is cheap.
        auto violate_prob = [](double mean, double variance) {
            const double sigma = std::sqrt(std::max(0.0, variance));
            if (sigma <= 0.0)
                return mean < 0.5 ? 1.0 : 0.0;
            return 0.5 *
                   std::erfc((mean - 0.5) / (sigma * std::sqrt(2.0)));
        };
        auto acq_objective = [&](const std::vector<double>& x) {
            double v = acquisition->evaluate(surrogate, x, incumbent_score);
            if (!budgeted)
                return v;
            gp::Prediction p = surrogate.predict(x);
            return budget.costAwareAcquisition(
                v, violate_prob(p.mean, p.variance));
        };
        // The 2d finite-difference probe points of each PG gradient go
        // through the batched posterior in one predictBatch call;
        // evaluateBatch is bit-identical to evaluate per point, so the
        // controller trace is unchanged.
        auto acq_batch = [&](const std::vector<std::vector<double>>& pts,
                             double* out) {
            acquisition->evaluateBatch(surrogate, pts, 0, pts.size(),
                                       incumbent_score, out);
            if (!budgeted)
                return;
            for (size_t i = 0; i < pts.size(); ++i) {
                gp::Prediction p = surrogate.predict(pts[i]);
                out[i] = budget.costAwareAcquisition(
                    out[i], violate_prob(p.mean, p.variance));
            }
        };

        // Dead columns are held at the actually-programmed partition
        // in every start (no block covers them, so the optimizer
        // leaves them untouched).
        auto pin_dead = [&](std::vector<double>& x) {
            if (dead_count == 0)
                return;
            const platform::Allocation& frozen =
                server.currentAllocation();
            for (size_t r = 0; r < nres; ++r)
                if (dead[r])
                    for (size_t j = 0; j < njobs; ++j)
                        x[j * nres + r] =
                            double(frozen.get(j, r)) /
                            double(config.resource(r).units);
        };

        // Multi-start: the incumbent plus random feasible points.
        std::vector<std::vector<double>> starts;
        {
            std::vector<double> s0 =
                trace[best_idx].alloc.flattenNormalized();
            if (fixed_job >= 0)
                for (size_t r = 0; r < nres; ++r)
                    s0[size_t(fixed_job) * nres + r] =
                        double(fixed_units[r]) /
                        double(config.resource(r).units);
            pin_dead(s0);
            starts.push_back(std::move(s0));
        }
        for (int s = 1; s < options_.acquisition_starts; ++s) {
            std::vector<double> x(dim, 0.0);
            for (size_t r = 0; r < nres; ++r) {
                int units = config.resource(r).units;
                int free_total =
                    units - (fixed_job >= 0 ? fixed_units[r] : 0);
                std::vector<int> parts = stats::sampleComposition(
                    free_total, int(free_jobs.size()), rng, 1);
                for (size_t k = 0; k < free_jobs.size(); ++k)
                    x[free_jobs[k] * nres + r] =
                        double(parts[k]) / double(units);
                if (fixed_job >= 0)
                    x[size_t(fixed_job) * nres + r] =
                        double(fixed_units[r]) / double(units);
            }
            pin_dead(x);
            starts.push_back(std::move(x));
        }

        // The starts run concurrently on the pool: both objectives only
        // read the surrogate through its const, thread-safe posterior,
        // and the starts above were drawn serially from rng.
        opt::PgResult acq =
            optimizer.maximizeMultiStart(acq_objective, acq_batch, starts);

        // Under cost-normalization acq.value is in useful-improvement-
        // per-second units (EI·(1−p)/E[cost]), and its maximizer is
        // not the raw-EI maximizer. Since E[cost] ≤ W, acq.value * W
        // upper-bounds the maximum expected USEFUL improvement
        // EI·(1−p) — the improvement a probe can actually deliver, an
        // aborted window never winning. Driving the EI-drop
        // termination and the lookahead with that bound keeps both
        // conservative: neither can fire before the achievable
        // improvement has actually dropped.
        const double max_ei =
            budgeted ? acq.value * window_s : acq.value;

        // Lookahead cutoff: with n affordable windows left, even the
        // optimistic total improvement n·maxEI no longer matters.
        if (budgeted && budget.lookaheadExhausted(max_ei)) {
            CLITE_LOG_DEBUG("budget lookahead cutoff at iteration "
                            << iter << ": max EI " << max_ei << " with "
                            << budget.remaining()
                            << "s remaining cannot beat the incumbent");
            budget_stopped = true;
            break;
        }

        // ---- Termination on expected-improvement drop: the EI curve
        // must stay below the (job-count-scaled) threshold for a few
        // consecutive iterations after a minimum search depth. While
        // NO feasible configuration has been found the termination is
        // disabled outright: stopping there amounts to declaring the
        // co-location impossible, a call that belongs to the
        // max-allocation bootstrap test, not to a misfit surrogate
        // whose EI collapses on the mode-1 plateau.
        bool any_feasible = false;
        for (const auto& rec : trace)
            any_feasible =
                any_feasible || (rec.usable() && rec.all_qos_met);
        below_threshold_streak =
            max_ei < threshold ? below_threshold_streak + 1 : 0;
        if (any_feasible && iter >= options_.min_iterations &&
            below_threshold_streak >= options_.termination_patience) {
            CLITE_LOG_DEBUG("terminating at iteration "
                            << iter << ": EI " << max_ei
                            << " below threshold " << threshold << " for "
                            << below_threshold_streak << " iterations");
            break;
        }

        // ---- Round to the lattice; never resample a configuration.
        const platform::Allocation* frozen =
            dead_count > 0 ? &server.currentAllocation() : nullptr;
        platform::Allocation next = roundWithPinning(
            acq.x, njobs, config, fixed_job, fixed_units, dead, frozen);
        int guard = 0;
        while (seen.count(next.key()) && guard++ < 32) {
            // Perturb: move one unit of a random (live) resource
            // between two random jobs.
            size_t r = size_t(rng.uniformInt(0, int64_t(nres) - 1));
            if (dead[r])
                continue;
            size_t from = size_t(rng.uniformInt(0, int64_t(njobs) - 1));
            size_t to = size_t(rng.uniformInt(0, int64_t(njobs) - 1));
            if (from != to)
                next.transferUnit(r, from, to);
        }
        if (seen.count(next.key())) {
            next = randomAllocation(njobs, config, rng);
            if (frozen != nullptr)
                for (size_t r = 0; r < nres; ++r)
                    if (dead[r])
                        for (size_t j = 0; j < njobs; ++j)
                            next.set(j, r, frozen->get(j, r));
        }
        if (seen.count(next.key()))
            break; // space effectively exhausted
        evaluate_unique(next);
    }

    // ---- Polish phase: slack-directed local moves around the
    // incumbent. The Eq. 3 optimum usually sits on the feasibility
    // boundary — LC jobs trimmed to just-enough resources, everything
    // else on the BG jobs (exactly the reshuffling Sec. 5.2 describes:
    // "it takes away particular types of resources from LC jobs to
    // help improve streamcluster performance"). EI's exploration bonus
    // avoids that cliff, so an exploitation pass harvests it: each
    // step donates one unit from the job with the most observed QoS
    // headroom to the worst-performing job, choosing the resource (or
    // equivalence-class double-move) the surrogate ranks highest.
    std::vector<char> polish_dead(nres, 0);
    if (resilient)
        for (size_t r : server.deadResources())
            polish_dead[r] = 1;
    for (int it = 0; it < options_.polish_iterations; ++it) {
        if (budgeted && !budget.canAffordWindow()) {
            budget_stopped = true;
            break;
        }
        std::vector<size_t> usable = usable_indices();
        if (usable.empty())
            break;
        std::vector<size_t> train = surrogate_indices();
        std::vector<linalg::Vector> xs;
        std::vector<double> ys;
        xs.reserve(train.size());
        for (size_t i : train) {
            xs.push_back(trace[i].alloc.flattenNormalized());
            ys.push_back(trace[i].score);
        }
        surrogate.fitIncremental(xs, ys);

        size_t best_idx = usable[0];
        for (size_t i : usable)
            if (trace[i].score > trace[best_idx].score)
                best_idx = i;
        const SampleRecord& incumbent_rec = trace[best_idx];
        const platform::Allocation& incumbent_alloc = incumbent_rec.alloc;

        // Donor: the LC job with the most QoS headroom (it can spare
        // resources). Recipient: the worst-performing job — a BG job
        // when QoS is met everywhere, the most violating LC job
        // otherwise (then BG jobs become donors too).
        int donor = -1, recipient = -1;
        double donor_metric = -1e100, recipient_metric = 1e100;
        const bool feasible_now = incumbent_rec.all_qos_met;
        for (size_t j = 0; j < njobs; ++j) {
            const platform::JobObservation& ob =
                incumbent_rec.observations[j];
            if (feasible_now) {
                // Donors: slackest LC job. Recipients: worst job by
                // normalized performance (BG preferred: LC perf is
                // capped once QoS is met).
                if (ob.is_lc && ob.qosRatio() > donor_metric) {
                    donor_metric = ob.qosRatio();
                    donor = int(j);
                }
                double p = ob.is_lc ? 1.0 + ob.perfNorm() : ob.perfNorm();
                if (p < recipient_metric) {
                    recipient_metric = p;
                    recipient = int(j);
                }
            } else {
                // Donors: BG jobs and slack LC jobs. Recipient: the
                // most violating LC job.
                double slack = ob.is_lc ? ob.qosRatio() : 1e6;
                if (slack > donor_metric) {
                    donor_metric = slack;
                    donor = int(j);
                }
                if (ob.is_lc && ob.qosRatio() < recipient_metric) {
                    recipient_metric = ob.qosRatio();
                    recipient = int(j);
                }
            }
        }
        if (donor < 0 || recipient < 0 || donor == recipient)
            break;
        const size_t from = size_t(donor), to = size_t(recipient);

        // Candidate moves from donor to recipient, ranked by the
        // surrogate's posterior mean.
        platform::Allocation best_neighbor = incumbent_alloc;
        double best_mean = -1e100;
        bool found = false;
        auto consider = [&](const platform::Allocation& cand) {
            if (seen.count(cand.key()))
                return;
            double mean =
                surrogate.predict(cand.flattenNormalized()).mean;
            if (mean > best_mean) {
                best_mean = mean;
                best_neighbor = cand;
                found = true;
            }
        };
        for (size_t r = 0; r < nres; ++r) {
            if (polish_dead[r] || incumbent_alloc.get(from, r) <= 1)
                continue;
            platform::Allocation one = incumbent_alloc;
            one.transferUnit(r, from, to);
            consider(one);
            for (size_t r2 = 0; r2 < nres; ++r2) {
                if (r2 == r || polish_dead[r2])
                    continue;
                // Same direction on a second resource.
                if (one.get(from, r2) > 1) {
                    platform::Allocation both = one;
                    both.transferUnit(r2, from, to);
                    consider(both);
                }
                // Equivalence-class swap: give r, take back r2.
                if (one.get(to, r2) > 1) {
                    platform::Allocation swap = one;
                    swap.transferUnit(r2, to, from);
                    consider(swap);
                }
            }
        }
        if (!found)
            break; // donor->recipient neighborhood exhausted
        evaluate_unique(best_neighbor);
    }

    // Search probes are done: everything from here on (validation
    // re-measurement, and the monitoring windows the caller runs
    // next) must observe at full fidelity.
    coarse_guard.release();

    // ---- Validation: re-measure the top candidates for extra
    // observation windows so boundary noise cannot promote a truly
    // QoS-violating configuration. Fault-free: the recorded score
    // becomes the mean across windows and QoS must hold in EVERY
    // window. Under faults the aggregation is robust instead —
    // median-of-k score and majority QoS vote — so one latency-spike
    // outlier can neither demote a genuinely good configuration nor
    // let a bad one slip through on a lucky window; dropout/stale
    // windows are discarded and re-measured.
    if (options_.validation_windows > 0 && !trace.empty() && resilient) {
        std::vector<size_t> order = usable_indices();
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return trace[a].score > trace[b].score;
        });
        size_t ncand = std::min(kValidationCandidates, order.size());
        for (size_t c = 0; c < ncand; ++c) {
            SampleRecord& rec = trace[order[c]];
            server.apply(rec.alloc);
            for (int a = 0;
                 a < options_.apply_retries && !server.lastApplyOk(); ++a)
                server.apply(rec.alloc);
            if (!server.lastApplyOk())
                continue; // cannot re-program: keep the sample as-is
            std::vector<double> scores = {rec.score};
            int met_votes = rec.all_qos_met ? 1 : 0;
            int windows = 0;
            int attempts = 0;
            const int max_attempts = options_.validation_windows * 2 + 2;
            while (windows < options_.validation_windows &&
                   attempts < max_attempts) {
                if (budgeted && !budget.canAffordWindow()) {
                    budget_stopped = true;
                    break;
                }
                ++attempts;
                std::vector<platform::JobObservation> obs =
                    server.observe();
                bool faulted = false;
                for (const auto& ob : obs)
                    faulted = faulted || !ob.valid || ob.stale;
                if (faulted) {
                    // Wasted window, re-measure. Still paid for — and
                    // faulted telemetry cannot certify QoS.
                    budget.chargeWindow(false);
                    rec.cost_seconds += window_s;
                    continue;
                }
                ScoreBreakdown sb = scoreObservations(obs);
                budget.chargeWindow(sb.all_qos_met);
                rec.cost_seconds += window_s;
                scores.push_back(sb.score);
                if (sb.all_qos_met)
                    ++met_votes;
                ++windows;
            }
            rec.score = stats::percentile(scores, 0.5);
            rec.all_qos_met = met_votes * 2 > int(scores.size());
            if (!rec.all_qos_met)
                rec.score = std::min(rec.score, 0.5);
        }
    } else if (options_.validation_windows > 0 && !trace.empty()) {
        std::vector<size_t> order(trace.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return trace[a].score > trace[b].score;
        });
        size_t ncand = std::min(kValidationCandidates, order.size());
        for (size_t c = 0; c < ncand; ++c) {
            SampleRecord& rec = trace[order[c]];
            double score_sum = rec.score;
            bool met = rec.all_qos_met;
            server.apply(rec.alloc);
            int done = 0;
            for (int w = 0; w < options_.validation_windows; ++w) {
                if (budgeted && !budget.canAffordWindow()) {
                    budget_stopped = true;
                    break;
                }
                std::vector<platform::JobObservation> obs =
                    server.observe();
                ScoreBreakdown sb = scoreObservations(obs);
                budget.chargeWindow(sb.all_qos_met);
                rec.cost_seconds += window_s;
                score_sum += sb.score;
                met = met && sb.all_qos_met;
                ++done;
            }
            rec.score = score_sum / double(done + 1);
            rec.all_qos_met = met;
            if (!met)
                rec.score = std::min(rec.score, 0.5);
        }
    }

    ControllerResult result =
        finish(finalizeResult(server, std::move(trace), false));
    result.budget_exhausted = budget_stopped;
    return result;
}

} // namespace core
} // namespace clite
