/**
 * @file
 * Command-line driver: run any co-location policy on any mix.
 *
 * Usage:
 *   clite_cli [--scheme NAME] [--mix SPEC] [--seed N] [--noise SIGMA]
 *             [--all-resources] [--des] [--list]
 *
 *   --scheme   clite | oracle | parties | heracles | rand+ | genetic |
 *              equal-share                     (default: clite)
 *   --mix      e.g. "img-dnn@30%,memcached@40%,streamcluster"
 *              (default: that example mix)
 *   --seed     RNG seed                         (default: 1)
 *   --noise    measurement-noise sigma          (default: 0.03)
 *   --all-resources   use the 6-resource server (adds memory
 *              capacity, disk and network bandwidth)
 *   --des      use the discrete-event backend instead of the
 *              analytic queueing model
 *   --list     print the workload catalog and exit
 */

#include <cstring>
#include <iostream>
#include <string>

#include "common/error.h"
#include "common/table.h"
#include "harness/analysis.h"
#include "harness/mix_parser.h"
#include "harness/schemes.h"
#include "workloads/catalog.h"

using namespace clite;

namespace {

void
printCatalog()
{
    std::cout << "latency-critical workloads (use NAME@LOAD):\n";
    for (const auto& n : workloads::lcWorkloadNames())
        std::cout << "  " << n << " — "
                  << workloads::lcWorkload(n).description << "\n";
    std::cout << "background workloads (use NAME):\n";
    for (const auto& n : workloads::bgWorkloadNames())
        std::cout << "  " << n << " — "
                  << workloads::bgWorkload(n).description << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    std::string scheme = "clite";
    std::string mix = "img-dnn@30%,memcached@40%,streamcluster";
    uint64_t seed = 1;
    double noise = 0.03;
    bool all_resources = false;
    bool des = false;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    std::cerr << "missing value for " << arg << "\n";
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--scheme")
                scheme = next();
            else if (arg == "--mix")
                mix = next();
            else if (arg == "--seed")
                seed = harness::parseSeed(next());
            else if (arg == "--noise")
                noise = harness::parseNoiseSigma(next());
            else if (arg == "--all-resources")
                all_resources = true;
            else if (arg == "--des")
                des = true;
            else if (arg == "--list") {
                printCatalog();
                return 0;
            } else {
                std::cerr << "unknown argument: " << arg << "\n";
                return 2;
            }
        }

        harness::ServerSpec spec;
        spec.jobs = harness::parseMix(mix);
        spec.seed = seed;
        spec.noise_sigma = noise;
        spec.all_resources = all_resources;
        spec.backend = des ? harness::ModelBackend::Des
                           : harness::ModelBackend::Analytic;

        std::cout << "scheme: " << scheme << "\n"
                  << "mix:    " << harness::formatMix(spec.jobs) << "\n\n";

        harness::SchemeOutcome out = harness::runScheme(scheme, spec, seed);

        TextTable t({"Job", "Kind", "p95 / throughput", "Target / iso",
                     "Status"});
        for (const auto& ob : out.truth_obs) {
            if (ob.is_lc)
                t.addRow({ob.job_name, "LC",
                          TextTable::num(ob.p95_ms, 3) + " ms",
                          TextTable::num(ob.qos_target_ms, 3) + " ms",
                          ob.qosMet() ? "QoS met" : "QoS MISSED"});
            else
                t.addRow({ob.job_name, "BG",
                          TextTable::num(ob.throughput, 0) + " ops/s",
                          TextTable::num(ob.iso_throughput, 0) + " ops/s",
                          TextTable::percent(ob.perfNorm(), 1) +
                              " of isolated"});
        }
        t.print(std::cout);

        std::cout << "\nscore (Eq. 3): "
                  << TextTable::num(out.truth.score, 4)
                  << "   configurations sampled: " << out.result.samples
                  << "\n";
        if (out.result.infeasible_detected)
            std::cout << "NOTE: some LC job misses QoS even with the "
                         "maximum allocation;\nthis co-location is "
                         "impossible - schedule it elsewhere.\n";
        return out.truth.all_qos_met ? 0 : 1;
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
