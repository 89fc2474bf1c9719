/**
 * @file
 * Workload resource-sensitivity profiles.
 *
 * Each profile is a synthetic stand-in for one of the paper's Table 3
 * applications (Tailbench latency-critical apps, PARSEC background
 * apps). A profile captures, per unit of work:
 *
 *  - pure CPU time,
 *  - memory-stall time at a 100% LLC miss ratio,
 *  - the LLC working-set curve (miss ratio vs allocated ways),
 *  - DRAM traffic (drives bandwidth contention),
 *  - memory-capacity working set and disk/network demand,
 *  - core scalability (Amdahl parallel fraction, BG jobs).
 *
 * The performance model (perf_model.h) turns a profile plus a resource
 * allocation into service times, tail latencies and throughput. The
 * parameters are chosen so the paper's phenomenology emerges: each app
 * has a distinct sensitivity mix (e.g. streamcluster is LLC-hungry,
 * masstree bandwidth-bound, blackscholes CPU-bound), creating the
 * "resource equivalence class" trade-offs of Fig. 1.
 */

#ifndef CLITE_WORKLOADS_PROFILE_H
#define CLITE_WORKLOADS_PROFILE_H

#include <string>

namespace clite {
namespace workloads {

/** Latency-critical vs throughput-oriented background. */
enum class JobClass { LatencyCritical, Background };

/**
 * Resource-sensitivity description of one application.
 */
struct WorkloadProfile
{
    std::string name;       ///< e.g. "memcached", "streamcluster".
    std::string description;///< Table 3 one-liner.
    JobClass job_class = JobClass::LatencyCritical;

    // --- LLC model -------------------------------------------------
    /**
     * Miss-ratio curve: miss(w) = floor + (1-floor) * 2^-((w-1)/half),
     * i.e. each additional `half` ways halves the over-floor misses.
     */
    double llc_half_ways = 3.0;  ///< Ways halving the miss ratio.
    double llc_miss_floor = 0.1; ///< Compulsory-miss floor in (0, 1].

    // --- service / op cost model ------------------------------------
    double cpu_ms = 1.0;  ///< CPU ms per query (LC) / per op (BG).
    double mem_ms = 0.5;  ///< Memory-stall ms per query at miss = 1.

    // --- DRAM traffic -----------------------------------------------
    /** MB of DRAM traffic per query at miss = 1 (LC jobs). */
    double traffic_mb_per_query = 1.0;
    /** MB/s of DRAM traffic per active core at miss = 1 (BG jobs). */
    double traffic_mbps_per_core = 200.0;

    // --- extended resources ------------------------------------------
    double mem_capacity_gb = 2.0;    ///< Resident working set.
    /** MB of disk I/O per query/op (0 for memory-resident apps). */
    double disk_mb_per_query = 0.0;
    /** MB of network traffic per query/op (0 for compute apps). */
    double net_mb_per_query = 0.0;

    // --- LC load model ------------------------------------------------
    /**
     * Request-serving parallelism ceiling (LC jobs): the number of
     * cores the service can keep busy before its internal bottleneck
     * (dispatch thread, locks, GC) caps throughput. This is what puts
     * the isolated QPS-vs-latency knee (Fig. 6) well below machine
     * saturation on the real testbed — and what makes co-located load
     * sums above 100% feasible (Figs. 7/8): a job at max load only
     * needs ~max_useful_cores, not the whole socket.
     */
    int max_useful_cores = 10;
    /** Offered QPS at 100% load (the Fig. 6 knee load). */
    double max_qps = 1000.0;
    /** p95 QoS target (ms); knee of the QPS-vs-p95 curve (Fig. 6). */
    double qos_p95_ms = 5.0;

    // --- BG scaling ----------------------------------------------------
    /** Amdahl parallel fraction in [0, 1] (BG jobs). */
    double parallel_fraction = 0.95;

    /** True for latency-critical profiles. */
    bool isLatencyCritical() const;
};

/**
 * One co-located job: a profile plus its offered load.
 */
struct JobSpec
{
    WorkloadProfile profile; ///< Resource-sensitivity description.
    /** Load as a fraction of profile.max_qps (LC only; ignored for BG). */
    double load_fraction = 1.0;

    // --- trace identity (time-varying load) ---------------------------
    /**
     * LoadTrace::name() of the trace driving this job's load, or ""
     * for a static load. Purely descriptive at runtime (the harness
     * applies the trace), but folded into MixSignature so warm-start
     * lookups on trace-driven mixes never alias a static profile as an
     * exact hit.
     */
    std::string trace_kind{};
    /**
     * Mean load of the driving trace (identity load for signatures;
     * meaningful only when trace_kind is non-empty). The instantaneous
     * load_fraction varies window to window, so the signature hashes
     * this stable summary instead.
     */
    double trace_mean_load = 0.0;

    /** Offered arrival rate in queries/second (LC). */
    double offeredQps() const;

    /** Convenience: profile.isLatencyCritical(). */
    bool isLatencyCritical() const;

    /** "name@load%" label used in harness tables. */
    std::string label() const;
};

} // namespace workloads
} // namespace clite

#endif // CLITE_WORKLOADS_PROFILE_H
