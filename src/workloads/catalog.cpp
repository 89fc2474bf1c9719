#include "workloads/catalog.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "workloads/perf_model.h"

namespace clite {
namespace workloads {

namespace {

/**
 * Utilization of the application's own serving capacity (its
 * max_useful_cores worth of workers) that defines the 100% ("max")
 * load. The knee of the isolated QPS-vs-p95 curve sits where the
 * app's internal parallelism ceiling saturates — well below machine
 * saturation, which is what lets the paper co-locate load sums above
 * 100% (Figs. 7/8).
 */
constexpr double kKneeUtilization = 0.90;
/**
 * QoS-target margin over the isolated p95 at max load. The knee
 * latency already contains substantial queueing delay, so a modest
 * margin still leaves co-location headroom.
 */
constexpr double kQosMargin = 1.20;

/**
 * Calibrate the load scale and QoS target the way Sec. 5.1 / Fig. 6
 * do. The knee of the isolated QPS-vs-p95 curve sits where the machine
 * approaches saturation, so:
 *
 *  - max_qps (the 100% load) is set to kKneeUtilization of the
 *    whole-machine sustainable rate (fixed-point over the
 *    bandwidth-stall coupling),
 *  - qos_p95_ms is the isolated p95 at that load plus a margin.
 *
 * This keeps load scale, target, and performance model mutually
 * consistent by construction: loads <= 100% are feasible in isolation,
 * and latency explodes just past 100%, giving the knee shape.
 */
void
calibrateLoadAndQos(WorkloadProfile& p)
{
    platform::ServerConfig config =
        platform::ServerConfig::xeonSilver4114AllResources();
    std::vector<int> full(config.resourceCount());
    for (size_t r = 0; r < config.resourceCount(); ++r)
        full[r] = config.resource(r).units;
    int cores = std::min(full[config.indexOf(platform::Resource::Cores)],
                         p.max_useful_cores);

    // Fixed point: service time depends on the bandwidth demand, which
    // depends on the offered rate we are solving for.
    JobSpec probe{p, 1.0};
    double lambda = 0.0;
    for (int it = 0; it < 8; ++it) {
        ServiceCost cost = deriveServiceCost(probe, full, config, lambda);
        double capacity = double(cores) * 1000.0 / cost.service_ms;
        lambda = kKneeUtilization * capacity;
    }
    p.max_qps = lambda;

    JobMeasurement m = closedFormMeasure(JobSpec{p, 1.0}, full, config);
    CLITE_ASSERT(!m.saturated,
                 "workload " << p.name
                             << " saturates the whole machine at its own "
                                "max load; calibration failed");
    p.qos_p95_ms = kQosMargin * m.p95_ms;
}

std::map<std::string, WorkloadProfile>
buildLcCatalog()
{
    std::map<std::string, WorkloadProfile> cat;

    {
        WorkloadProfile p;
        p.name = "img-dnn";
        p.max_useful_cores = 4;
        p.description = "Image recognition (Tailbench)";
        p.job_class = JobClass::LatencyCritical;
        p.cpu_ms = 2.2;
        p.mem_ms = 1.2;
        p.llc_half_ways = 3.5;
        p.llc_miss_floor = 0.15;
        p.traffic_mb_per_query = 2.5;
        p.mem_capacity_gb = 3.0;
        p.max_qps = 3000.0;
        calibrateLoadAndQos(p);
        cat[p.name] = p;
    }
    {
        WorkloadProfile p;
        p.name = "masstree";
        p.max_useful_cores = 5;
        p.description = "Key-value store (Tailbench)";
        p.job_class = JobClass::LatencyCritical;
        p.cpu_ms = 0.45;
        p.mem_ms = 0.55;
        p.llc_half_ways = 5.0;
        p.llc_miss_floor = 0.25;
        p.traffic_mb_per_query = 2.0;
        p.mem_capacity_gb = 8.0;
        p.max_qps = 12000.0;
        calibrateLoadAndQos(p);
        cat[p.name] = p;
    }
    {
        WorkloadProfile p;
        p.name = "memcached";
        p.max_useful_cores = 5;
        p.description = "Key-value store with Mutilate load generator";
        p.job_class = JobClass::LatencyCritical;
        p.cpu_ms = 0.045;
        p.mem_ms = 0.030;
        p.llc_half_ways = 1.5;
        p.llc_miss_floor = 0.10;
        p.traffic_mb_per_query = 0.2;
        p.mem_capacity_gb = 6.0;
        p.net_mb_per_query = 0.01;
        p.max_qps = 120000.0;
        calibrateLoadAndQos(p);
        cat[p.name] = p;
    }
    {
        WorkloadProfile p;
        p.name = "specjbb";
        p.max_useful_cores = 5;
        p.description = "Java middleware (Tailbench)";
        p.job_class = JobClass::LatencyCritical;
        p.cpu_ms = 1.0;
        p.mem_ms = 1.0;
        p.llc_half_ways = 4.5;
        p.llc_miss_floor = 0.20;
        p.traffic_mb_per_query = 2.5;
        p.mem_capacity_gb = 12.0;
        p.max_qps = 4500.0;
        calibrateLoadAndQos(p);
        cat[p.name] = p;
    }
    {
        WorkloadProfile p;
        p.name = "xapian";
        p.max_useful_cores = 4;
        p.description = "Online search over English Wikipedia (Tailbench)";
        p.job_class = JobClass::LatencyCritical;
        p.cpu_ms = 1.3;
        p.mem_ms = 0.6;
        p.llc_half_ways = 2.5;
        p.llc_miss_floor = 0.20;
        p.traffic_mb_per_query = 1.5;
        p.mem_capacity_gb = 4.0;
        p.disk_mb_per_query = 0.05;
        p.max_qps = 5000.0;
        calibrateLoadAndQos(p);
        cat[p.name] = p;
    }
    return cat;
}

std::map<std::string, WorkloadProfile>
buildBgCatalog()
{
    std::map<std::string, WorkloadProfile> cat;

    auto bg = [](const std::string& name, const std::string& desc,
                 double cpu_ms, double mem_ms, double half, double floor,
                 double traffic, double par, double ws_gb) {
        WorkloadProfile p;
        p.name = name;
        p.description = desc;
        p.job_class = JobClass::Background;
        p.cpu_ms = cpu_ms;
        p.mem_ms = mem_ms;
        p.llc_half_ways = half;
        p.llc_miss_floor = floor;
        p.traffic_mbps_per_core = traffic;
        p.parallel_fraction = par;
        p.mem_capacity_gb = ws_gb;
        return p;
    };

    // Sensitivity mix follows the PARSEC characterization literature:
    // blackscholes/swaptions CPU-bound and scalable; canneal memory-
    // latency bound; streamcluster and freqmine LLC-hungry;
    // fluidanimate in between.
    WorkloadProfile p;
    p = bg("blackscholes", "Option pricing with Black-Scholes PDE",
           1.0, 0.05, 0.8, 0.40, 100.0, 0.98, 0.6);
    cat[p.name] = p;
    p = bg("canneal", "Simulated cache-aware annealing for chip design",
           0.4, 1.2, 4.0, 0.45, 4000.0, 0.85, 8.0);
    cat[p.name] = p;
    p = bg("fluidanimate", "Fluid dynamics for animation (SPH)",
           0.7, 0.5, 2.5, 0.30, 1500.0, 0.92, 2.0);
    cat[p.name] = p;
    p = bg("freqmine", "Frequent itemset mining",
           0.6, 0.7, 5.0, 0.15, 1200.0, 0.80, 5.0);
    cat[p.name] = p;
    p = bg("streamcluster", "Online clustering of an input stream",
           0.35, 1.1, 6.0, 0.08, 3000.0, 0.90, 3.0);
    cat[p.name] = p;
    p = bg("swaptions", "Pricing of a portfolio of swaptions",
           1.0, 0.03, 0.6, 0.50, 50.0, 0.99, 0.3);
    cat[p.name] = p;
    return cat;
}

const std::map<std::string, WorkloadProfile>&
lcCatalog()
{
    static const std::map<std::string, WorkloadProfile> cat =
        buildLcCatalog();
    return cat;
}

const std::map<std::string, WorkloadProfile>&
bgCatalog()
{
    static const std::map<std::string, WorkloadProfile> cat =
        buildBgCatalog();
    return cat;
}

} // namespace

const std::vector<std::string>&
lcWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto& [name, prof] : lcCatalog())
            n.push_back(name);
        return n;
    }();
    return names;
}

const std::vector<std::string>&
bgWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto& [name, prof] : bgCatalog())
            n.push_back(name);
        return n;
    }();
    return names;
}

WorkloadProfile
lcWorkload(const std::string& name)
{
    auto it = lcCatalog().find(name);
    CLITE_CHECK(it != lcCatalog().end(),
                "unknown latency-critical workload: " << name);
    return it->second;
}

WorkloadProfile
bgWorkload(const std::string& name)
{
    auto it = bgCatalog().find(name);
    CLITE_CHECK(it != bgCatalog().end(),
                "unknown background workload: " << name);
    return it->second;
}

WorkloadProfile
workloadByName(const std::string& name)
{
    if (auto it = lcCatalog().find(name); it != lcCatalog().end())
        return it->second;
    if (auto it = bgCatalog().find(name); it != bgCatalog().end())
        return it->second;
    CLITE_THROW("unknown workload: " << name);
}

JobSpec
lcJob(const std::string& name, double load_fraction)
{
    CLITE_CHECK(load_fraction > 0.0 && load_fraction <= 1.0,
                "LC load fraction must be in (0,1], got " << load_fraction);
    return JobSpec{lcWorkload(name), load_fraction};
}

JobSpec
bgJob(const std::string& name)
{
    return JobSpec{bgWorkload(name), 1.0};
}

} // namespace workloads
} // namespace clite
