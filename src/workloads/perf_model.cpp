#include "workloads/perf_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sim/queueing.h"
#include "stats/distributions.h"

namespace clite {
namespace workloads {

namespace {

/// Stall-time inflation per unit of bandwidth oversubscription.
constexpr double kBwPenalty = 2.0;
/// Ceiling on the bandwidth stall multiplier.
constexpr double kMaxBwStall = 8.0;
/// Service inflation per unit of memory-capacity oversubscription.
constexpr double kPagePenalty = 3.0;
/// Ceiling on the paging multiplier.
constexpr double kMaxPaging = 20.0;
/// Utilization beyond which the analytic LC model switches to the
/// linear overload extrapolation (the closed form diverges at rho=1).
constexpr double kRhoKnee = 0.995;

/** Miss-ratio curve of the profile at w allocated ways. */
double
missRatio(const WorkloadProfile& p, double ways)
{
    CLITE_ASSERT(ways >= 1.0, "ways allocation below 1");
    double floor = std::clamp(p.llc_miss_floor, 0.0, 1.0);
    double half = std::max(0.05, p.llc_half_ways);
    return floor + (1.0 - floor) * std::exp2(-(ways - 1.0) / half);
}

/** Amdahl speedup of c cores at parallel fraction p. */
double
amdahl(int cores, double parallel_fraction)
{
    double p = std::clamp(parallel_fraction, 0.0, 1.0);
    return 1.0 / ((1.0 - p) + p / double(cores));
}

/** Allocated physical value of resource @p kind, or @p fallback. */
double
allocatedPhysical(const platform::ServerConfig& config,
                  const std::vector<int>& units, platform::Resource kind,
                  double fallback)
{
    if (!config.has(kind))
        return fallback;
    size_t r = config.indexOf(kind);
    return double(units[r]) * config.resource(r).unit_value;
}

} // namespace

ServiceCost
deriveServiceCost(const JobSpec& job, const std::vector<int>& units,
                  const platform::ServerConfig& config, double offered_rate)
{
    CLITE_CHECK(units.size() == config.resourceCount(),
                "allocation has " << units.size() << " resources, server "
                                  << config.resourceCount());
    const WorkloadProfile& p = job.profile;

    ServiceCost cost;
    cost.cores = units[config.indexOf(platform::Resource::Cores)];
    CLITE_CHECK(cost.cores >= 1, "job allocated zero cores");
    // LC services cannot exploit cores beyond their internal
    // parallelism ceiling (see WorkloadProfile::max_useful_cores).
    if (p.isLatencyCritical())
        cost.cores = std::min(cost.cores, std::max(1, p.max_useful_cores));

    double ways = 1.0;
    if (config.has(platform::Resource::LlcWays))
        ways = double(units[config.indexOf(platform::Resource::LlcWays)]);
    cost.miss_ratio = missRatio(p, ways);

    // Bandwidth contention: demand is the job's DRAM traffic at its
    // offered rate, throttled against the MBA-style allocated share.
    double bw_alloc = allocatedPhysical(config, units,
                                        platform::Resource::MemBandwidth,
                                        config.peak_mem_bw_mbps);
    double demand_mbps;
    if (p.isLatencyCritical()) {
        // LC: bandwidth shortfall lengthens each query's memory stalls
        // (a latency effect).
        demand_mbps = p.traffic_mb_per_query * cost.miss_ratio *
                      std::max(0.0, offered_rate);
        double over = bw_alloc > 0.0 ? demand_mbps / bw_alloc - 1.0
                                     : kMaxBwStall;
        cost.bw_stall = std::clamp(1.0 + kBwPenalty * std::max(0.0, over),
                                   1.0, kMaxBwStall);
    } else {
        // BG: bandwidth caps throughput. Dividing the unstalled rate
        // by demand/alloc yields rate = alloc/bytes-per-op in the
        // bw-bound regime — flat (never decreasing) in extra cores,
        // matching how real streaming workloads saturate a memory
        // channel. The stall is NOT folded into service time here; the
        // model backends divide the rate by it.
        demand_mbps = p.traffic_mbps_per_core * cost.miss_ratio *
                      amdahl(cost.cores, p.parallel_fraction);
        double ratio = bw_alloc > 0.0 ? demand_mbps / bw_alloc
                                      : kMaxBwStall;
        cost.bw_stall = std::clamp(ratio, 1.0, kMaxBwStall);
    }

    // Memory-capacity pressure (paging knee).
    double cap_alloc = allocatedPhysical(config, units,
                                         platform::Resource::MemCapacity,
                                         config.memory_gb);
    double cap_over = cap_alloc > 0.0
                          ? p.mem_capacity_gb / cap_alloc - 1.0
                          : kMaxPaging;
    cost.paging = std::clamp(1.0 + kPagePenalty * std::max(0.0, cap_over),
                             1.0, kMaxPaging);

    // I/O time per query: bytes moved over the allocated share.
    double io_ms = 0.0;
    if (p.disk_mb_per_query > 0.0) {
        double disk_alloc = allocatedPhysical(
            config, units, platform::Resource::DiskBandwidth,
            config.disk_bw_mbps);
        io_ms += p.disk_mb_per_query / std::max(1e-9, disk_alloc) * 1000.0;
    }
    if (p.net_mb_per_query > 0.0) {
        double net_alloc = allocatedPhysical(
            config, units, platform::Resource::NetBandwidth,
            config.net_bw_mbps);
        io_ms += p.net_mb_per_query / std::max(1e-9, net_alloc) * 1000.0;
    }

    double mem_ms = p.mem_ms * cost.miss_ratio *
                    (p.isLatencyCritical() ? cost.bw_stall : 1.0);
    cost.service_ms = (p.cpu_ms + mem_ms + io_ms) * cost.paging;
    CLITE_ASSERT(cost.service_ms > 0.0, "non-positive service time");
    return cost;
}

JobMeasurement
closedFormMeasure(const JobSpec& job, const std::vector<int>& units,
                  const platform::ServerConfig& config)
{
    ServiceCost cost = deriveServiceCost(job, units, config,
                                         job.isLatencyCritical()
                                             ? job.offeredQps()
                                             : 0.0);
    JobMeasurement m;
    m.service_ms = cost.service_ms;
    m.miss_ratio = cost.miss_ratio;
    m.bw_stall = cost.bw_stall;

    if (!job.isLatencyCritical()) {
        m.throughput = amdahl(cost.cores, job.profile.parallel_fraction) *
                       1000.0 / cost.service_ms / cost.bw_stall;
        return m;
    }

    const double lambda = job.offeredQps();
    const double mu = 1000.0 / cost.service_ms; // per-core service rate /s
    const double capacity = double(cost.cores) * mu;

    if (lambda <= 0.0) {
        m.p95_ms = cost.service_ms * 2.0; // lone-request tail estimate
        m.p99_ms = cost.service_ms * 2.0;
        m.mean_ms = cost.service_ms;
        m.throughput = 0.0;
        return m;
    }

    double rho = lambda / capacity;
    if (rho < kRhoKnee) {
        m.p95_ms = stats::mmcResponseQuantile(cost.cores, lambda, mu, 0.95)
                   * 1000.0;
        m.p99_ms = stats::mmcResponseQuantile(cost.cores, lambda, mu, 0.99)
                   * 1000.0;
        m.mean_ms = stats::mmcMeanResponse(cost.cores, lambda, mu) * 1000.0;
        m.throughput = lambda;
    } else {
        // Overload: extrapolate linearly from the knee so the score
        // surface stays finite and monotone (helps every optimizer,
        // not just CLITE).
        double lambda_knee = kRhoKnee * capacity;
        double p95_knee = stats::mmcResponseQuantile(cost.cores, lambda_knee,
                                                     mu, 0.95) * 1000.0;
        double p99_knee = stats::mmcResponseQuantile(cost.cores, lambda_knee,
                                                     mu, 0.99) * 1000.0;
        double overload = 1.0 + 25.0 * (rho - kRhoKnee);
        m.p95_ms = p95_knee * overload;
        m.p99_ms = p99_knee * overload;
        m.mean_ms = m.p95_ms * 0.6;
        m.throughput = capacity;
        m.saturated = true;
    }
    return m;
}

JobMeasurement
AnalyticModel::measure(const JobSpec& job, const std::vector<int>& units,
                       const platform::ServerConfig& config,
                       Rng& /* rng */) const
{
    return closedFormMeasure(job, units, config);
}

QueueingSimModel::QueueingSimModel(double warmup_s, double window_s,
                                   uint64_t event_budget)
    : warmup_s_(warmup_s), window_s_(window_s), event_budget_(event_budget)
{
    CLITE_CHECK(warmup_s_ >= 0.0, "warmup must be >= 0");
    CLITE_CHECK(window_s_ > 0.0, "window must be > 0");
}

JobMeasurement
QueueingSimModel::measure(const JobSpec& job, const std::vector<int>& units,
                          const platform::ServerConfig& config,
                          Rng& rng) const
{
    ServiceCost cost = deriveServiceCost(job, units, config,
                                         job.isLatencyCritical()
                                             ? job.offeredQps()
                                             : 0.0);
    JobMeasurement m;
    m.service_ms = cost.service_ms;
    m.miss_ratio = cost.miss_ratio;
    m.bw_stall = cost.bw_stall;

    if (!job.isLatencyCritical()) {
        // Throughput of a batch job over the window: rate plus a small
        // sampling wobble from per-op variability.
        double rate = amdahl(cost.cores, job.profile.parallel_fraction) *
                      1000.0 / cost.service_ms / cost.bw_stall;
        double ops = rate * window_s_;
        double wobble = (ops > 0.0) ? 1.0 / std::sqrt(ops) : 0.0;
        m.throughput = rate * rng.logNormalMean(1.0, wobble * 0.5);
        return m;
    }

    const double lambda = job.offeredQps();
    if (lambda <= 0.0) {
        m.p95_ms = cost.service_ms * 2.0;
        m.p99_ms = cost.service_ms * 2.0;
        m.mean_ms = cost.service_ms;
        return m;
    }

    // Exponential service: the analytic backend's M/M/c.
    const sim::TailMeasurement tm = sim::measureStation(
        cost.cores, lambda, cost.service_ms / 1000.0, warmup_s_, window_s_,
        rng, event_budget_);
    m.p95_ms = tm.p95 * 1000.0;
    m.p99_ms = tm.p99 * 1000.0;
    m.mean_ms = tm.mean * 1000.0;
    m.throughput = tm.throughput;
    m.saturated = lambda > double(cost.cores) * 1000.0 / cost.service_ms;
    if (tm.completed == 0) {
        // Nothing completed in the window: report a saturated latency.
        m.p95_ms = (warmup_s_ + window_s_) * 1000.0;
        m.p99_ms = m.p95_ms;
        m.mean_ms = m.p95_ms;
        m.saturated = true;
    }
    return m;
}

} // namespace workloads
} // namespace clite
