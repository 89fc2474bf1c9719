/**
 * @file
 * QPS-vs-tail-latency characterization of isolated LC jobs (Fig. 6).
 *
 * Sweeps offered load for one latency-critical application running
 * alone with the whole machine and reports the p95 curve, the QoS
 * target line and the knee (max load). Mirrors the methodology of
 * Sec. 5.1: "the QoS tail-latency of the LC workloads is the knee of
 * these curves and the corresponding QPS is the maximum load".
 */

#ifndef CLITE_HARNESS_KNEE_H
#define CLITE_HARNESS_KNEE_H

#include <string>
#include <vector>

#include "harness/schemes.h"

namespace clite {
namespace harness {

/** One point of the isolated load-latency curve. */
struct KneePoint
{
    double load_fraction = 0.0; ///< Of the catalog's max load.
    double qps = 0.0;           ///< Offered queries/second.
    double p95_ms = 0.0;        ///< Measured p95 latency.
};

/** Full characterization of one LC application. */
struct KneeCurve
{
    std::string workload;       ///< Application name.
    double qos_p95_ms = 0.0;    ///< Catalog QoS target.
    double max_qps = 0.0;       ///< Catalog max load (the knee).
    std::vector<KneePoint> points; ///< Sweep in load order.

    /**
     * The measured knee: the largest swept load whose p95 is within
     * the QoS target (0 when even the smallest load misses).
     */
    double measuredKneeLoad() const;
};

/**
 * Sweep @p workload in isolation.
 *
 * @param workload LC application name.
 * @param loads Load fractions to sweep (may exceed 1 to show the
 *     super-saturation blow-up).
 * @param backend Model backend to measure with: each point is one
 *     noise-free observation window on it (the closed form on the
 *     analytic backend, a DES window on the DES backend).
 * @param seed Seed of the server the DES windows draw from (noise is
 *     disabled for this analysis).
 */
KneeCurve sweepIsolatedLoad(const std::string& workload,
                            const std::vector<double>& loads,
                            ModelBackend backend = ModelBackend::Analytic,
                            uint64_t seed = 3);

} // namespace harness
} // namespace clite

#endif // CLITE_HARNESS_KNEE_H
