/**
 * @file
 * Regenerates Figure 1: QoS-safe regions for three representative LC
 * jobs over two resources, demonstrating the "resource equivalence
 * class" property — multiple (cores, LLC ways) mixes meet QoS and
 * trade off against each other.
 *
 * Output: one ASCII region map per job ('#' = QoS-safe), plus a
 * summary of the equivalence property.
 */

#include <iostream>

#include "common/table.h"
#include "harness/qos_region.h"

using namespace clite;

namespace {

void
printRegion(const harness::QosRegion& region)
{
    std::cout << region.workload << " @ "
              << TextTable::percent(region.load_fraction, 0) << " load ("
              << platform::resourceName(region.res_a) << " x "
              << platform::resourceName(region.res_b) << ")\n";
    // Rows printed top-down with the largest b allocation first, as in
    // the paper's axes.
    for (size_t bi = region.b_units.size(); bi-- > 0;) {
        std::cout << "  " << (region.b_units[bi] < 10 ? " " : "")
                  << region.b_units[bi] << " |";
        for (size_t ai = 0; ai < region.a_units.size(); ++ai)
            std::cout << (region.safe[bi][ai] ? " #" : " .");
        std::cout << "\n";
    }
    std::cout << "      +";
    for (size_t ai = 0; ai < region.a_units.size(); ++ai)
        std::cout << "--";
    std::cout << "\n       ";
    for (int a : region.a_units) {
        if (a < 10)
            std::cout << ' ' << a;
        else
            std::cout << a % 100 / 10 << a % 10;
    }
    std::cout << "   (" << platform::resourceName(region.res_a) << ")\n\n";
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 1: QoS-safe regions ('#' meets the p95 target)");

    TextTable summary({"Workload", "Load", "Safe configs",
                       "Equivalence trade-off"});
    // Loads high enough that the cores/ways boundary curves (at low
    // load the generous knee-derived targets admit almost anything).
    for (const auto& [name, load] :
         std::vector<std::pair<std::string, double>>{
             {"img-dnn", 0.8}, {"specjbb", 0.8}, {"memcached", 0.8}}) {
        harness::QosRegion region = harness::mapQosRegion(
            name, load, platform::Resource::Cores,
            platform::Resource::LlcWays);
        printRegion(region);
        summary.addRow(
            {name, TextTable::percent(load, 0),
             TextTable::num(static_cast<long long>(region.safeCount())),
             region.hasEquivalenceTradeoff() ? "yes" : "no"});
    }

    // The bandwidth dimension shows the same property for the
    // bandwidth-sensitive app.
    harness::QosRegion bw = harness::mapQosRegion(
        "masstree", 0.6, platform::Resource::LlcWays,
        platform::Resource::MemBandwidth);
    printRegion(bw);
    summary.addRow({"masstree (ways x bw)", "60%",
                    TextTable::num(
                        static_cast<long long>(bw.safeCount())),
                    bw.hasEquivalenceTradeoff() ? "yes" : "no"});

    summary.print(std::cout);
    return 0;
}
