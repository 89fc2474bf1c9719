#include "harness/qos_region.h"

#include "common/error.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

namespace clite {
namespace harness {

size_t
QosRegion::safeCount() const
{
    size_t n = 0;
    for (const auto& row : safe)
        for (bool s : row)
            n += s ? 1 : 0;
    return n;
}

bool
QosRegion::hasEquivalenceTradeoff() const
{
    // Look for two safe cells (a1,b1), (a2,b2) with a1 < a2, b1 > b2.
    for (size_t b1 = 0; b1 < safe.size(); ++b1)
        for (size_t a1 = 0; a1 < safe[b1].size(); ++a1) {
            if (!safe[b1][a1])
                continue;
            for (size_t b2 = 0; b2 < b1; ++b2)
                for (size_t a2 = a1 + 1; a2 < safe[b2].size(); ++a2)
                    if (safe[b2][a2])
                        return true;
        }
    return false;
}

QosRegion
mapQosRegion(const std::string& workload, double load,
             platform::Resource res_a, platform::Resource res_b)
{
    CLITE_CHECK(res_a != res_b, "QoS region needs two distinct resources");

    platform::ServerConfig config = platform::ServerConfig::xeonSilver4114();
    workloads::WorkloadProfile profile = workloads::lcWorkload(workload);
    workloads::JobSpec job{profile, load};

    const size_t ia = config.indexOf(res_a);
    const size_t ib = config.indexOf(res_b);

    QosRegion region;
    region.workload = workload;
    region.load_fraction = load;
    region.res_a = res_a;
    region.res_b = res_b;
    for (int u = 1; u <= config.resource(ia).units; ++u)
        region.a_units.push_back(u);
    for (int u = 1; u <= config.resource(ib).units; ++u)
        region.b_units.push_back(u);

    region.safe.assign(region.b_units.size(),
                       std::vector<bool>(region.a_units.size(), false));
    for (size_t bi = 0; bi < region.b_units.size(); ++bi) {
        for (size_t ai = 0; ai < region.a_units.size(); ++ai) {
            std::vector<int> units(config.resourceCount());
            for (size_t r = 0; r < config.resourceCount(); ++r)
                units[r] = config.resource(r).units; // others at full
            units[ia] = region.a_units[ai];
            units[ib] = region.b_units[bi];
            region.safe[bi][ai] =
                workloads::closedFormMeasure(job, units, config).p95_ms <=
                profile.qos_p95_ms;
        }
    }
    return region;
}

} // namespace harness
} // namespace clite
