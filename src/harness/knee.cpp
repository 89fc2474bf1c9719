#include "harness/knee.h"

#include "common/error.h"
#include "workloads/catalog.h"

namespace clite {
namespace harness {

double
KneeCurve::measuredKneeLoad() const
{
    double knee = 0.0;
    for (const auto& pt : points)
        if (pt.p95_ms <= qos_p95_ms && pt.load_fraction > knee)
            knee = pt.load_fraction;
    return knee;
}

KneeCurve
sweepIsolatedLoad(const std::string& workload,
                  const std::vector<double>& loads, ModelBackend backend,
                  uint64_t seed)
{
    CLITE_CHECK(!loads.empty(), "need at least one load point");
    workloads::WorkloadProfile profile = workloads::lcWorkload(workload);

    KneeCurve curve;
    curve.workload = workload;
    curve.qos_p95_ms = profile.qos_p95_ms;
    curve.max_qps = profile.max_qps;

    for (double load : loads) {
        CLITE_CHECK(load > 0.0, "load fraction must be > 0, got " << load);
        ServerSpec spec;
        spec.jobs = {workloads::JobSpec{profile, load}};
        spec.backend = backend;
        spec.noise_sigma = 0.0;
        spec.seed = seed;
        platform::SimulatedServer server = makeServer(spec);

        // One measured window on the backend (a seeded DES window on
        // the DES), not the closed-form truth, so the analytic and DES
        // curves stay two readings.
        std::vector<platform::JobObservation> obs = server.evaluate(
            platform::Allocation::maxFor(0, 1, server.config()));

        KneePoint pt;
        pt.load_fraction = load;
        pt.qps = load * profile.max_qps;
        pt.p95_ms = obs[0].p95_ms;
        curve.points.push_back(pt);
    }
    return curve;
}

} // namespace harness
} // namespace clite
