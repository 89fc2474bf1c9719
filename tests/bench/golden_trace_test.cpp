/**
 * @file
 * Golden-trace regression tests for the figure-driver cores.
 *
 * The figure benches (bench/fig06..fig16) are executables, so nothing
 * in the test suite noticed when their numbers drifted. These tests
 * recompute a compact core of three drivers — the Fig. 6 isolated
 * knee sweep, a Fig. 7 max-supported-load cell and a Fig. 13
 * BG-performance cell — and diff the %.9g-formatted trace against
 * goldens committed in tests/bench/golden/. Everything underneath is
 * deterministic (seeded noise, seeded BO, thread-count-invariant
 * pool), so the comparison is exact string equality: any change to
 * the numerics — kernels, score, model, search — shows up as a diff,
 * down to one ULP in a GP kernel.
 *
 * Regenerating after an INTENDED numerical change is described in
 * golden.h.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/score.h"
#include "gp/gaussian_process.h"
#include "gp/kernel.h"
#include "harness/analysis.h"
#include "harness/knee.h"
#include "harness/maxload.h"
#include "harness/schemes.h"
#include "workloads/catalog.h"

#include "golden.h"

namespace clite {
namespace harness {
namespace {

std::string
g(double v)
{
    // %.9g: enough digits that any behavioural drift shows, few
    // enough that the goldens stay readable. The searches underneath
    // are exactly reproducible, so even the last digit is stable.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

using golden::checkGolden;
using golden::g17;

TEST(GoldenTrace, Fig06IsolatedKneeSweep)
{
    // The Fig. 6 core: isolated QPS/p95 sweeps. Model-only (no
    // search), covering the analytic latency model, the catalog and
    // the DES backend on one workload.
    std::ostringstream trace;
    const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8, 1.0, 1.2};
    for (const std::string& name : {std::string("memcached"),
                                    std::string("xapian")}) {
        KneeCurve curve =
            sweepIsolatedLoad(name, loads, ModelBackend::Analytic);
        trace << "fig06 " << name << " qos_p95_ms=" << g(curve.qos_p95_ms)
              << " max_qps=" << g(curve.max_qps)
              << " knee=" << g(curve.measuredKneeLoad()) << "\n";
        for (const KneePoint& pt : curve.points)
            trace << "fig06 " << name << " load=" << g(pt.load_fraction)
                  << " qps=" << g(pt.qps) << " p95=" << g(pt.p95_ms)
                  << "\n";
    }
    KneeCurve des = sweepIsolatedLoad("memcached", {0.4, 0.8},
                                      ModelBackend::Des);
    for (const KneePoint& pt : des.points)
        trace << "fig06 memcached-des load=" << g(pt.load_fraction)
              << " p95=" << g(pt.p95_ms) << "\n";
    checkGolden("fig06_knee", trace.str());
}

TEST(GoldenTrace, Fig07MaxSupportedLoadCell)
{
    // One Fig. 7 heatmap cell: the highest memcached load CLITE can
    // co-locate next to xapian@40% + img-dnn@40%. Exercises the full
    // BO search (bootstrap, GP, acquisition) through the maxload
    // driver.
    MaxLoadQuery query;
    query.fixed_jobs = {workloads::lcJob("xapian", 0.4),
                        workloads::lcJob("img-dnn", 0.4)};
    query.probe_workload = "memcached";
    query.probe_loads = {0.2, 0.4, 0.6, 0.8};
    query.seed = 7;
    std::ostringstream trace;
    for (const std::string& scheme : {std::string("clite"),
                                      std::string("parties")})
        trace << "fig07 " << scheme
              << " max_load=" << g(maxSupportedLoad(scheme, query))
              << "\n";
    checkGolden("fig07_maxload", trace.str());
}

TEST(GoldenTrace, Fig13BgPerformanceCell)
{
    // One Fig. 13 cell per scheme: three LC jobs plus one BG job;
    // the trace pins the search outcome (samples, feasibility), the
    // ground-truth score and the BG normalized performance.
    ServerSpec spec;
    spec.jobs = {workloads::lcJob("memcached", 0.4),
                 workloads::lcJob("xapian", 0.4),
                 workloads::lcJob("img-dnn", 0.4),
                 workloads::bgJob("canneal")};
    spec.seed = 90;
    std::ostringstream trace;
    for (const std::string& scheme : {std::string("clite"),
                                      std::string("parties")}) {
        SchemeOutcome out = runScheme(scheme, spec, spec.seed);
        trace << "fig13 " << scheme << " samples=" << out.result.samples
              << " feasible=" << (out.result.feasible ? 1 : 0)
              << " score=" << g(out.truth.score)
              << " qos_met=" << (out.truth.all_qos_met ? 1 : 0)
              << " bg_perf=" << g(meanBgPerformance(out.truth_obs))
              << "\n";
    }
    checkGolden("fig13_bgperf", trace.str());
}

TEST(GoldenTrace, SurrogatePosteriorToTheLastUlp)
{
    // The three driver goldens pin search OUTCOMES, which are robust
    // to sub-noise numerical drift by design. This trace pins the BO
    // surrogate itself: GP posteriors on a fixed score dataset,
    // %.17g-formatted, so a single-ULP change anywhere in the kernel
    // or the Cholesky path flips the trace. The training targets come
    // from the analytic model (noise-free scores of fixed partitions),
    // tying the golden to the repo's numerics end to end.
    ServerSpec spec;
    spec.jobs = {workloads::lcJob("memcached", 0.4),
                 workloads::lcJob("xapian", 0.3),
                 workloads::bgJob("canneal")};
    spec.noise_sigma = 0.0;
    platform::SimulatedServer server = makeServer(spec);

    std::vector<linalg::Vector> x;
    std::vector<double> y;
    platform::Allocation alloc = platform::Allocation::equalShare(
        3, server.config());
    for (int step = 0; step < 6; ++step) {
        x.push_back(alloc.flattenNormalized());
        y.push_back(core::scoreObservations(
                        server.observeNoiseless(alloc))
                        .score);
        alloc.transferUnit(size_t(step % 3), size_t(step % 3),
                           size_t((step + 1) % 3));
    }

    std::ostringstream trace;
    for (const std::string& kname : {std::string("matern52"),
                                     std::string("rbf")}) {
        gp::GaussianProcess gp(gp::makeKernel(kname, x[0].size(), 0.3),
                               1e-4);
        gp.fit(x, y);
        for (const linalg::Vector& q : x) {
            gp::Prediction p = gp.predict(q);
            trace << "gp " << kname << " mean=" << g17(p.mean)
                  << " var=" << g17(p.variance) << "\n";
        }
    }
    checkGolden("gp_posterior", trace.str());
}

} // namespace
} // namespace harness
} // namespace clite
