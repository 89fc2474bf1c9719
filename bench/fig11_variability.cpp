/**
 * @file
 * Regenerates Figure 11: run-to-run variability (standard deviation
 * as % of the mean achieved LC performance) across repeated runs of
 * each scheme on the same job set. Paper result: CLITE < 7% in all
 * cases; PARTIES/GENETIC/RAND+ often > 20%.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "harness/analysis.h"
#include "workloads/catalog.h"

using namespace clite;

namespace {

void
runSet(const std::string& label, std::vector<workloads::JobSpec> jobs,
       int trials)
{
    std::cout << label << " (" << trials << " trials)\n";
    TextTable t({"Scheme", "Mean score", "Score std-dev (%)",
                 "Mean LC perf", "95% CI", "LC-perf std-dev (%)"});
    for (const char* scheme : {"clite", "parties", "genetic", "rand+"}) {
        harness::ServerSpec spec;
        spec.jobs = jobs;
        spec.seed = 1234;
        harness::VariabilityResult v =
            harness::runVariability(scheme, spec, trials);
        const std::string ci_lo = TextTable::num(v.perf_ci.lo, 3);
        const std::string ci_hi = TextTable::num(v.perf_ci.hi, 3);
        t.addRow({scheme, TextTable::num(v.mean_score, 3),
                  TextTable::num(v.score_cov_percent, 1) + "%",
                  TextTable::num(v.mean_perf, 3),
                  "[" + ci_lo + ", " + ci_hi + "]",
                  TextTable::num(v.cov_percent, 1) + "%"});
    }
    t.print(std::cout);
    bench::maybeWriteCsv(t, "fig11_" + std::to_string(trials) + "trials_" + jobs[0].profile.name);
    std::cout << "\n";
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 11: variability of the chosen configuration's "
                "performance across repeated runs (lower is better)");
    const int trials = 6;
    runSet("img-dnn@30% + xapian@30% + memcached@30%",
           {workloads::lcJob("img-dnn", 0.3), workloads::lcJob("xapian", 0.3),
            workloads::lcJob("memcached", 0.3)},
           trials);
    runSet("specjbb@30% + masstree@30% + xapian@30%",
           {workloads::lcJob("specjbb", 0.3),
            workloads::lcJob("masstree", 0.3),
            workloads::lcJob("xapian", 0.3)},
           trials);
    // A mix with a BG job: here the competing schemes' stochastic
    // search shows its spread (the trial-and-error reallocation the
    // paper blames for PARTIES' variability needs contended BG
    // resources to surface in our noise model).
    runSet("img-dnn@40% + xapian@40% + memcached@40% + fluidanimate",
           {workloads::lcJob("img-dnn", 0.4),
            workloads::lcJob("xapian", 0.4),
            workloads::lcJob("memcached", 0.4),
            workloads::bgJob("fluidanimate")},
           trials);
    return 0;
}
