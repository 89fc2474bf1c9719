/**
 * @file
 * google-benchmark microbenchmarks for the substrate components,
 * backing the Sec. 5.2 overhead discussion: GP fit/predict at CLITE's
 * sample counts, acquisition evaluation and constrained maximization,
 * score evaluation, the analytic and DES model backends, and the
 * memoized ORACLE enumeration rate.
 *
 * This binary doubles as the repo's perf-baseline harness: the
 * surrogate-maintenance hot paths are timed in incremental vs
 * from-scratch pairs (Cholesky append vs refactor, GP addSample vs
 * refit) at n = 16 / 64 / 256 samples, plus serial vs pooled
 * acquisition rounds and the end-to-end BO loop. Set CLITE_BENCH_JSON
 * to a path (or pass the usual --benchmark_out flags) to emit the
 * machine-readable BENCH_components.json that CI archives per commit;
 * docs/PERF.md explains how to read it. --threads=N sizes the global
 * pool (--threads=1 is the serial escape hatch).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/oracle.h"
#include "bo/acquisition.h"
#include "bo/bayes_opt.h"
#include "common/thread_pool.h"
#include "core/clite.h"
#include "core/score.h"
#include "gp/gaussian_process.h"
#include "harness/schemes.h"
#include "linalg/cholesky.h"
#include "opt/projected_gradient.h"
#include "sim/queueing.h"
#include "stats/sampling.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

using namespace clite;

namespace {

constexpr size_t kDim = 12; // 4 jobs x 3 resources, CLITE's usual box

std::vector<linalg::Vector>
randomInputs(size_t n, size_t dim, Rng& rng)
{
    std::vector<linalg::Vector> xs(n, linalg::Vector(dim));
    for (auto& x : xs)
        for (auto& v : x)
            v = rng.uniform();
    return xs;
}

/** Random SPD matrix shaped like a kernel Gram matrix. */
linalg::Matrix
randomSpd(size_t n, Rng& rng)
{
    linalg::Matrix b(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            b(r, c) = rng.uniform(-1.0, 1.0);
    linalg::Matrix a = b * b.transposed();
    a.addDiagonal(double(n) * 0.1);
    return a;
}

/** A GP fitted to n random samples, shared base for the extend pair. */
gp::GaussianProcess
fittedGp(size_t n, uint64_t seed)
{
    Rng rng(seed);
    auto xs = randomInputs(n, kDim, rng);
    std::vector<double> ys(n);
    for (auto& y : ys)
        y = rng.uniform();
    gp::GaussianProcess g(std::make_unique<gp::Matern52Kernel>(kDim, 0.3),
                          1e-4);
    g.fit(xs, ys);
    return g;
}

double
elapsedSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

// ---- Surrogate-extension pair: the cost of growing the sample set by
// one point, from scratch vs incrementally. The ratio between the two
// at n = 256 is the headline number of this harness (target >= 5x).

void
BM_CholeskyFactor(benchmark::State& state)
{
    const size_t n = size_t(state.range(0));
    Rng rng(17);
    linalg::Matrix a = randomSpd(n, rng);
    for (auto _ : state) {
        linalg::Cholesky chol(a);
        benchmark::DoNotOptimize(chol.factor().rows());
    }
}
BENCHMARK(BM_CholeskyFactor)->Arg(16)->Arg(64)->Arg(256);

void
BM_CholeskyAppendRow(benchmark::State& state)
{
    const size_t n = size_t(state.range(0));
    Rng rng(17);
    linalg::Matrix a = randomSpd(n + 1, rng);
    linalg::Matrix head(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            head(r, c) = a(r, c);
    linalg::Vector b(n);
    for (size_t r = 0; r < n; ++r)
        b[r] = a(n, r);
    const double c = a(n, n);
    linalg::Cholesky base(head);
    for (auto _ : state) {
        // The copy restores the pre-append factor; only the append is
        // timed (manual time), so the pair is comparable.
        linalg::Cholesky chol = base;
        auto t0 = std::chrono::steady_clock::now();
        bool ok = chol.appendRow(b, c);
        state.SetIterationTime(elapsedSeconds(t0));
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_CholeskyAppendRow)->Arg(16)->Arg(64)->Arg(256)->UseManualTime();

void
BM_SurrogateExtendFullRefit(benchmark::State& state)
{
    const size_t n = size_t(state.range(0));
    Rng rng(23);
    auto xs = randomInputs(n + 1, kDim, rng);
    std::vector<double> ys(n + 1);
    for (auto& y : ys)
        y = rng.uniform();
    gp::GaussianProcess g(std::make_unique<gp::Matern52Kernel>(kDim, 0.3),
                          1e-4);
    for (auto _ : state) {
        g.fit(xs, ys);
        benchmark::DoNotOptimize(g.sampleCount());
    }
}
BENCHMARK(BM_SurrogateExtendFullRefit)->Arg(16)->Arg(64)->Arg(256);

void
BM_SurrogateExtendIncremental(benchmark::State& state)
{
    const size_t n = size_t(state.range(0));
    gp::GaussianProcess base = fittedGp(n, 23);
    Rng rng(29);
    linalg::Vector xq(kDim);
    for (auto& v : xq)
        v = rng.uniform();
    const double yq = rng.uniform();
    for (auto _ : state) {
        gp::GaussianProcess g = base; // untimed: restore n samples
        auto t0 = std::chrono::steady_clock::now();
        g.addSample(xq, yq);
        state.SetIterationTime(elapsedSeconds(t0));
        benchmark::DoNotOptimize(g.sampleCount());
    }
}
BENCHMARK(BM_SurrogateExtendIncremental)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->UseManualTime();

// ---- Hyper-parameter probe: one LML evaluation under fresh Matérn
// log-length-scales, i.e. the Nelder-Mead inner loop that the
// stationary-distance cache accelerates.

void
BM_GpHyperparameterProbe(benchmark::State& state)
{
    const size_t n = size_t(state.range(0));
    gp::GaussianProcess g = fittedGp(n, 31);
    Rng rng(37);
    gp::GpFitOptions fo;
    fo.restarts = 0;
    fo.max_iters = 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(g.optimizeHyperparameters(rng, fo));
}
BENCHMARK(BM_GpHyperparameterProbe)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// ---- Acquisition rounds: one BO iteration's worth of candidate
// evaluations, serial vs fanned out on the pool.

void
acquisitionRound(benchmark::State& state, bool parallel)
{
    const size_t n = size_t(state.range(0)), candidates = 512;
    gp::GaussianProcess g = fittedGp(n, 41);
    bo::ExpectedImprovement ei(0.01);
    Rng rng(43);
    std::vector<linalg::Vector> cands =
        randomInputs(candidates, kDim, rng);
    std::vector<double> acq(candidates);
    for (auto _ : state) {
        if (parallel) {
            globalPool().parallelFor(candidates, [&](size_t c) {
                acq[c] = ei.evaluate(g, cands[c], 0.6);
            });
        } else {
            for (size_t c = 0; c < candidates; ++c)
                acq[c] = ei.evaluate(g, cands[c], 0.6);
        }
        benchmark::DoNotOptimize(acq.data());
    }
}

void
BM_AcquisitionRoundSerial(benchmark::State& state)
{
    acquisitionRound(state, false);
}
BENCHMARK(BM_AcquisitionRoundSerial)->Arg(16)->Arg(64)->Arg(256);

void
BM_AcquisitionRoundParallel(benchmark::State& state)
{
    acquisitionRound(state, true);
}
BENCHMARK(BM_AcquisitionRoundParallel)->Arg(16)->Arg(64)->Arg(256);

// ---- Batched acquisition rounds: same 512-candidate work as the
// serial/parallel pair above, but scored through the SoA posterior
// engine (one kernel panel + blocked TRSM per candidate block instead
// of 512 independent predict() calls). Batched vs RoundSerial is the
// headline ratio of the batched engine (target >= 3x); the Parallel
// variant fans candidate blocks out on the pool and only separates
// from the serial-batch number when the machine has >= 2 cores.

void
acquisitionRoundBatched(benchmark::State& state, bool parallel)
{
    const size_t n = size_t(state.range(0)), candidates = 512;
    gp::GaussianProcess g = fittedGp(n, 41);
    bo::ExpectedImprovement ei(0.01);
    Rng rng(43);
    std::vector<linalg::Vector> cands =
        randomInputs(candidates, kDim, rng);
    std::vector<double> acq(candidates);
    for (auto _ : state) {
        if (parallel) {
            bo::scoreCandidates(ei, g, cands, 0.6, acq.data());
        } else {
            for (size_t b = 0; b < candidates; b += bo::kAcquisitionBlock) {
                size_t count = candidates - b < bo::kAcquisitionBlock
                                   ? candidates - b
                                   : bo::kAcquisitionBlock;
                ei.evaluateBatch(g, cands, b, count, 0.6, acq.data() + b);
            }
        }
        benchmark::DoNotOptimize(acq.data());
    }
}

void
BM_AcquisitionRoundBatched(benchmark::State& state)
{
    acquisitionRoundBatched(state, false);
}
BENCHMARK(BM_AcquisitionRoundBatched)->Arg(16)->Arg(64)->Arg(256);

void
BM_AcquisitionRoundBatchedParallel(benchmark::State& state)
{
    acquisitionRoundBatched(state, true);
}
BENCHMARK(BM_AcquisitionRoundBatchedParallel)->Arg(16)->Arg(64)->Arg(256);

// Raw posterior throughput of the batched engine vs the scalar path:
// 512 predictions against an n-sample surrogate, per-iteration time.

void
BM_GpPredictBatch512(benchmark::State& state)
{
    const size_t n = size_t(state.range(0)), candidates = 512;
    gp::GaussianProcess g = fittedGp(n, 53);
    Rng rng(59);
    std::vector<linalg::Vector> cands =
        randomInputs(candidates, kDim, rng);
    std::vector<double> means(candidates), vars(candidates);
    for (auto _ : state) {
        g.predictBatch(cands, 0, candidates, means.data(), vars.data());
        benchmark::DoNotOptimize(means.data());
    }
}
BENCHMARK(BM_GpPredictBatch512)->Arg(16)->Arg(64)->Arg(256);

void
BM_GpPredictScalar512(benchmark::State& state)
{
    const size_t n = size_t(state.range(0)), candidates = 512;
    gp::GaussianProcess g = fittedGp(n, 53);
    Rng rng(59);
    std::vector<linalg::Vector> cands =
        randomInputs(candidates, kDim, rng);
    std::vector<double> means(candidates);
    for (auto _ : state) {
        for (size_t c = 0; c < candidates; ++c)
            means[c] = g.predict(cands[c]).mean;
        benchmark::DoNotOptimize(means.data());
    }
}
BENCHMARK(BM_GpPredictScalar512)->Arg(16)->Arg(64)->Arg(256);

// ---- End-to-end BO decision loop at a given sample budget
// (surrogate extension + acquisition per iteration; hyper-fitting is
// timed separately above).

void
BM_BayesOptLoop(benchmark::State& state)
{
    const int budget = int(state.range(0));
    bo::BayesOptOptions o;
    o.initial_samples = 4;
    o.max_iterations = budget - o.initial_samples;
    o.candidates = 128;
    o.fit_hyperparameters = false;
    o.ei_termination = -1.0; // never stop early: fixed work per run
    auto f = [](const linalg::Vector& x) {
        double s = 0.0;
        for (double v : x)
            s -= (v - 0.37) * (v - 0.37);
        return s;
    };
    for (auto _ : state) {
        bo::BayesOpt bo(linalg::Vector(kDim, 0.0),
                        linalg::Vector(kDim, 1.0),
                        std::make_unique<bo::ExpectedImprovement>(0.01), o);
        Rng rng(47);
        benchmark::DoNotOptimize(bo.maximize(f, rng).best_y);
    }
}
BENCHMARK(BM_BayesOptLoop)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void
BM_GpFit(benchmark::State& state)
{
    const size_t n = size_t(state.range(0)), dim = 12;
    Rng rng(3);
    auto xs = randomInputs(n, dim, rng);
    std::vector<double> ys(n);
    for (auto& y : ys)
        y = rng.uniform();
    gp::GaussianProcess gp(std::make_unique<gp::Matern52Kernel>(dim, 0.3),
                           1e-4);
    for (auto _ : state) {
        gp.fit(xs, ys);
        benchmark::DoNotOptimize(gp.sampleCount());
    }
}
BENCHMARK(BM_GpFit)->Arg(10)->Arg(30)->Arg(50);

void
BM_GpPredict(benchmark::State& state)
{
    const size_t n = 40, dim = 12;
    Rng rng(5);
    auto xs = randomInputs(n, dim, rng);
    std::vector<double> ys(n);
    for (auto& y : ys)
        y = rng.uniform();
    gp::GaussianProcess gp(std::make_unique<gp::Matern52Kernel>(dim, 0.3),
                           1e-4);
    gp.fit(xs, ys);
    linalg::Vector q(dim, 0.4);
    for (auto _ : state)
        benchmark::DoNotOptimize(gp.predict(q).mean);
}
BENCHMARK(BM_GpPredict);

void
BM_AcquisitionEval(benchmark::State& state)
{
    const size_t n = 40, dim = 12;
    Rng rng(7);
    auto xs = randomInputs(n, dim, rng);
    std::vector<double> ys(n);
    for (auto& y : ys)
        y = rng.uniform();
    gp::GaussianProcess gp(std::make_unique<gp::Matern52Kernel>(dim, 0.3),
                           1e-4);
    gp.fit(xs, ys);
    bo::ExpectedImprovement ei(0.01);
    linalg::Vector q(dim, 0.4);
    for (auto _ : state)
        benchmark::DoNotOptimize(ei.evaluate(gp, q, 0.6));
}
BENCHMARK(BM_AcquisitionEval);

void
BM_AnalyticModelMeasure(benchmark::State& state)
{
    platform::ServerConfig config = platform::ServerConfig::xeonSilver4114();
    workloads::JobSpec job = workloads::lcJob("img-dnn", 0.4);
    workloads::AnalyticModel model;
    Rng rng(9);
    std::vector<int> units = {4, 5, 3};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            model.measure(job, units, config, rng).p95_ms);
}
BENCHMARK(BM_AnalyticModelMeasure);

/**
 * The DES family runs 5 repetitions and reports their aggregates only;
 * bench/compare_bench.py reads the median. One sample of one of these
 * benchmarks swings by up to ±20% between runs of one binary, and a
 * full run and a filtered run of one binary read their shared ratio
 * denominator, BM_DesModelMeasureHighRate, 16% apart; the component
 * gate reads within-run ratios of them.
 */
void
desRepetitions(benchmark::internal::Benchmark* b)
{
    b->Repetitions(5)->ReportAggregatesOnly(true);
}

/**
 * One fine DES QoS window of a low-rate job: img-dnn at 40% load,
 * about 1.2k measured requests, so the window summary takes its
 * tail-selection path at a stride narrower than the large windows'.
 */
void
BM_DesModelMeasure(benchmark::State& state)
{
    platform::ServerConfig config = platform::ServerConfig::xeonSilver4114();
    workloads::JobSpec job = workloads::lcJob("img-dnn", 0.4);
    workloads::QueueingSimModel model(0.5, 2.0);
    Rng rng(11);
    std::vector<int> units = {4, 5, 3};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            model.measure(job, units, config, rng).p95_ms);
}
BENCHMARK(BM_DesModelMeasure)->Apply(desRepetitions);

/**
 * One fine DES QoS window at the rates that carry most simulated
 * requests in a search or a fleet: memcached at 30% load on a 5-core
 * allocation, about 72k measured requests, so the window summary takes
 * its tail-selection path.
 */
void
BM_DesModelMeasureHighRate(benchmark::State& state)
{
    platform::ServerConfig config = platform::ServerConfig::xeonSilver4114();
    workloads::JobSpec job = workloads::lcJob("memcached", 0.3);
    workloads::QueueingSimModel model(0.5, 2.0);
    Rng rng(11);
    std::vector<int> units = {5, 5, 3};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            model.measure(job, units, config, rng).p95_ms);
}
BENCHMARK(BM_DesModelMeasureHighRate)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(desRepetitions);

/**
 * The BM_DesModelMeasureHighRate window under the coarse event budget
 * (2000 measured requests per LC window: the accuracy/latency trade
 * documented in docs/MODEL.md and pinned by
 * tests/sim/queueing_budget_test.cpp). The station is below the knee,
 * so the window starts in the stationary state and simulates no
 * warm-up: it simulates about 2000 requests against the fine window's
 * 72k, and the ratio to BM_DesModelMeasureHighRate (a within-run ratio
 * the component gate reads) is what a coarse probe saves at this
 * rate. Fails if the budget stops binding.
 */
void
BM_DesModelMeasureCoarse(benchmark::State& state)
{
    const double warmup = 0.5, window = 2.0;
    const uint64_t budget = 2000;
    platform::ServerConfig config = platform::ServerConfig::xeonSilver4114();
    workloads::JobSpec job = workloads::lcJob("memcached", 0.3);
    if (sim::effectiveWindow(window, job.offeredQps(), budget) >= window) {
        state.SkipWithError("the event budget does not bind at this rate");
        return;
    }
    workloads::QueueingSimModel model(warmup, window, budget);
    Rng rng(11);
    std::vector<int> units = {5, 5, 3};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            model.measure(job, units, config, rng).p95_ms);
}
BENCHMARK(BM_DesModelMeasureCoarse)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(desRepetitions);

/**
 * The station loop alone at c = state.range(0) servers: one fine 2 s
 * window at ρ 0.7 and 1 ms mean service, so 1.4k·c measured requests,
 * below the 4096 from which the summary's pivot stride stops growing
 * at c = 1 and 2 and above it at c = 5 and 9. Below the knee every
 * simulated arrival is measured, so the per_request counter (requests
 * per second, inverted: seconds in the JSON, printed as ns) is the
 * window's cost per simulated request. Its absolute time swings like the
 * BM_DesModelMeasure family, so the component gate reads its ratio to
 * BM_DesModelMeasureHighRate.
 */
void
BM_DesStation(benchmark::State& state)
{
    const int servers = int(state.range(0));
    const double mean_service = 0.001;
    const double lambda = 0.7 * double(servers) / mean_service;
    Rng rng(11);
    double requests = 0.0;
    for (auto _ : state) {
        const sim::TailMeasurement m =
            sim::measureStation(servers, lambda, mean_service, 0.5, 2.0, rng);
        benchmark::DoNotOptimize(m.p95);
        requests += double(m.completed);
    }
    state.counters["per_request"] = benchmark::Counter(
        requests, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DesStation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(5)
    ->Arg(9)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(desRepetitions);

/**
 * The station loop's draw phase alone: 4096 unit exponentials per
 * iteration through an RngLookahead, as the loop takes them (a
 * simulated request takes two). The per_draw counter (draws per
 * second, inverted: seconds in the JSON, printed as ns) is the cost of
 * one raw draw and its -log(1 - u), block kernel included.
 */
void
BM_UnitExponentials(benchmark::State& state)
{
    constexpr int kDraws = 4096;
    Rng rng(11);
    for (auto _ : state) {
        RngLookahead draws(rng);
        // Four partial sums, so no add chain paces the draws.
        double sum[4] = {};
        for (int i = 0; i < kDraws; i += 4)
            for (double& s : sum)
                s += draws.unitExponential();
        draws.commit();
        benchmark::DoNotOptimize(sum);
    }
    state.counters["per_draw"] = benchmark::Counter(
        double(state.iterations()) * kDraws,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_UnitExponentials)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(desRepetitions);

void
BM_ScoreEvaluation(benchmark::State& state)
{
    harness::ServerSpec spec;
    spec.jobs = {workloads::lcJob("img-dnn", 0.3),
                 workloads::lcJob("memcached", 0.3),
                 workloads::bgJob("streamcluster")};
    platform::SimulatedServer server = harness::makeServer(spec);
    auto obs = server.observe();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::score(obs));
}
BENCHMARK(BM_ScoreEvaluation);

void
BM_OracleThreeJobs(benchmark::State& state)
{
    // Full memoized exhaustive search over 58,320 configurations.
    for (auto _ : state) {
        harness::ServerSpec spec;
        spec.jobs = {workloads::lcJob("img-dnn", 0.3),
                     workloads::lcJob("memcached", 0.3),
                     workloads::bgJob("streamcluster")};
        spec.noise_sigma = 0.0;
        platform::SimulatedServer server = harness::makeServer(spec);
        baselines::OracleController oracle;
        benchmark::DoNotOptimize(oracle.run(server).best_score);
    }
}
BENCHMARK(BM_OracleThreeJobs)->Unit(benchmark::kMillisecond);

void
BM_CliteFullSearch(benchmark::State& state)
{
    // One complete CLITE decision process (the paper's end-to-end
    // controller overhead, minus the 2 s observation windows that
    // dominate on a real machine).
    for (auto _ : state) {
        harness::ServerSpec spec;
        spec.jobs = {workloads::lcJob("img-dnn", 0.3),
                     workloads::lcJob("memcached", 0.3),
                     workloads::bgJob("streamcluster")};
        platform::SimulatedServer server = harness::makeServer(spec);
        core::CliteController clite;
        benchmark::DoNotOptimize(clite.run(server).best_score);
    }
}
BENCHMARK(BM_CliteFullSearch)->Unit(benchmark::kMillisecond);

void
BM_CompositionEnumeration(benchmark::State& state)
{
    for (auto _ : state) {
        uint64_t count = 0;
        stats::forEachComposition(11, 4, [&](const std::vector<int>&) {
            ++count;
            return true;
        });
        benchmark::DoNotOptimize(count);
    }
}
BENCHMARK(BM_CompositionEnumeration);

void
BM_ProjectedGradientAcqStep(benchmark::State& state)
{
    const size_t njobs = 4, nres = 3, dim = njobs * nres;
    Rng rng(13);
    auto xs = randomInputs(36, dim, rng);
    std::vector<double> ys(36);
    for (auto& y : ys)
        y = rng.uniform();
    gp::GaussianProcess gp(std::make_unique<gp::Matern52Kernel>(dim, 0.3),
                           1e-4);
    gp.fit(xs, ys);
    bo::ExpectedImprovement ei(0.01);

    std::vector<opt::SimplexBlock> blocks;
    for (size_t r = 0; r < nres; ++r) {
        opt::SimplexBlock b;
        b.total = 1.0;
        for (size_t j = 0; j < njobs; ++j) {
            b.indices.push_back(j * nres + r);
            b.lo.push_back(0.1);
            b.hi.push_back(0.7);
        }
        blocks.push_back(std::move(b));
    }
    opt::PgOptions pg;
    pg.max_iters = 40;
    opt::ProjectedGradientOptimizer optimizer(blocks, dim, pg);
    std::vector<double> start(dim, 0.25);
    for (auto _ : state) {
        auto r = optimizer.maximize(
            [&](const std::vector<double>& x) {
                return ei.evaluate(gp, x, 0.6);
            },
            start);
        benchmark::DoNotOptimize(r.value);
    }
}
BENCHMARK(BM_ProjectedGradientAcqStep)->Unit(benchmark::kMillisecond);

} // namespace

namespace {

/**
 * True when this binary was compiled with assertions enabled (no
 * NDEBUG) — timings from such a build are meaningless as baselines.
 * Note this tracks the *repo's* build type; the `library_build_type`
 * context google-benchmark emits describes how the preinstalled
 * benchmark library itself was compiled and may say "debug" even for
 * a Release build of clite.
 */
constexpr bool
debugBuild()
{
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

/**
 * Refuse to emit a baseline-looking JSON from a debug build: stamp
 * ".DEBUG" into the file name (BENCH_components.json ->
 * BENCH_components.DEBUG.json) so it can never be mistaken for, or
 * committed as, the Release baseline.
 */
std::string
stampDebugSuffix(const std::string& path)
{
    size_t dot = path.find_last_of('.');
    size_t slash = path.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + ".DEBUG";
    return path.substr(0, dot) + ".DEBUG" + path.substr(dot);
}

} // namespace

/**
 * BENCHMARK_MAIN plus two conveniences: --threads=N resizes the global
 * pool before anything runs, and CLITE_BENCH_JSON=<path> injects the
 * --benchmark_out flags so CI emits BENCH_components.json without
 * quoting games. Debug builds get their JSON renamed with a .DEBUG
 * stamp (see stampDebugSuffix) and a clite_build_type context key
 * records the repo build type either way.
 */
int
main(int argc, char** argv)
{
    std::vector<std::string> keep;
    keep.reserve(size_t(argc) + 2);
    keep.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            int n = std::atoi(argv[i] + 10);
            if (n >= 1)
                setGlobalThreadCount(n);
        } else {
            keep.emplace_back(argv[i]);
        }
    }
    benchmark::AddCustomContext("clite_build_type",
                                debugBuild() ? "debug" : "release");
    if (const char* path = std::getenv("CLITE_BENCH_JSON")) {
        if (*path != '\0') {
            std::string out = path;
            if (debugBuild()) {
                out = stampDebugSuffix(out);
                std::fprintf(stderr,
                             "components_benchmark: built without NDEBUG; "
                             "refusing to write %s, emitting %s instead. "
                             "Reconfigure with -DCMAKE_BUILD_TYPE=Release "
                             "to regenerate the baseline.\n",
                             path, out.c_str());
            }
            keep.push_back("--benchmark_out=" + out);
            keep.emplace_back("--benchmark_out_format=json");
        }
    }
    std::vector<char*> args;
    args.reserve(keep.size());
    for (auto& s : keep)
        args.push_back(s.data());
    int filtered_argc = int(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
