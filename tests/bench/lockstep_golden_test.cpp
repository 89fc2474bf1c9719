/**
 * @file
 * Golden traces of the lockstep fleet window (Fleet::tick()).
 *
 * A lockstep tick places queued jobs, runs every occupied node's
 * observation window, and then settles the window: it samples fleet
 * QoS, publishes checkpoints to the shared store and acts on
 * infeasibility signals, always in node order. Each scenario below
 * pins every FleetWindow field and the fleet digest after every tick,
 * and the fleet summary, store size and per-node warm-start source at
 * the end, to the last ULP. Each is run at 1, 2 and 8 pool threads;
 * the three traces must be identical to each other and to the
 * committed golden.
 *
 * Regenerating after an INTENDED change: see golden.h.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "common/thread_pool.h"
#include "workloads/catalog.h"

#include "golden.h"

namespace clite {
namespace cluster {
namespace {

using golden::g17;

FleetOptions
fastFleet(int nodes, uint64_t seed)
{
    FleetOptions o;
    o.nodes = nodes;
    o.seed = seed;
    o.clite.max_iterations = 8;
    o.clite.acquisition_starts = 2;
    return o;
}

/** One tick's FleetWindow and the fleet digest after it. */
std::string
describeWindow(const Fleet& fleet, const FleetWindow& w)
{
    std::ostringstream out;
    out << "window " << w.window << " placed=" << w.placed
        << " evicted=" << w.evicted << " rescheduled=" << w.rescheduled
        << " parked=" << w.parked
        << " reoptimizations=" << w.reoptimizations
        << " pending=" << w.pending
        << " qos_met=" << g17(w.qos_met_fraction)
        << " bg_perf=" << g17(w.mean_bg_perf)
        << " placed_total=" << w.placed_total << "\n";
    out << "digest " << fleet.digest() << "\n";
    return out.str();
}

/** The run's summary, store size and every node's warm source. */
std::string
describeEnd(const Fleet& fleet)
{
    const FleetSummary s = fleet.summarize();
    std::ostringstream out;
    out << "summary windows=" << s.windows
        << " admitted=" << s.jobs_admitted << " placed=" << s.jobs_placed
        << " pending=" << s.jobs_pending << " parked=" << s.jobs_parked
        << " evictions=" << s.evictions
        << " reoptimizations=" << s.reoptimizations
        << " qos count=" << s.qos_met_fraction.count()
        << " mean=" << g17(s.qos_met_fraction.mean())
        << " bg count=" << s.bg_perf.count()
        << " mean=" << g17(s.bg_perf.mean()) << "\n";
    out << "store " << fleet.profileStore().size() << "\n";
    out << "warm";
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        const core::OnlineManager* mgr = fleet.nodeManager(n);
        out << " " << (mgr != nullptr ? mgr->warmSource() : "-");
    }
    out << "\n";
    return out.str();
}

/**
 * Run @p scenario at 1, 2 and 8 pool threads: the traces must agree
 * with each other and with the golden @p name.
 */
void
checkAcrossThreads(const std::string& name,
                   const std::function<std::string()>& scenario)
{
    std::vector<std::string> traces;
    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        traces.push_back(scenario());
    }
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
    EXPECT_EQ(traces[0], traces[1]) << name << ": 2 threads diverged";
    EXPECT_EQ(traces[0], traces[2]) << name << ": 8 threads diverged";
    golden::checkGolden(name, traces[0]);
}

TEST(LockstepGolden, SteadyFleetWithLoadDriftAndALateArrival)
{
    // Four jobs on five nodes leave node 4 empty until a late
    // memcached arrival takes it; its first search then seeds from
    // the checkpoints the other nodes published. Two more arrivals
    // then join occupied nodes (mix-change searches), and every LC
    // job's load steps by 40% every third tick, so nodes re-optimize
    // on drift.
    checkAcrossThreads("lockstep_steady", [] {
        Fleet fleet(fastFleet(5, 7));
        fleet.admit(workloads::lcJob("memcached", 0.3));
        fleet.admit(workloads::lcJob("xapian", 0.3));
        fleet.admit(workloads::lcJob("img-dnn", 0.3));
        fleet.admit(workloads::bgJob("canneal"));
        std::ostringstream trace;
        for (int t = 0; t < 10; ++t) {
            if (t == 2)
                fleet.admit(workloads::lcJob("memcached", 0.3));
            if (t == 3) {
                fleet.admit(workloads::bgJob("streamcluster"));
                fleet.admit(workloads::lcJob("xapian", 0.3));
            }
            for (const FleetJob& job : fleet.jobs()) {
                if (job.state != JobState::Placed ||
                    !job.spec.isLatencyCritical())
                    continue;
                const int step = int((uint64_t(t / 3) + job.id) % 3) - 1;
                fleet.setJobLoad(job.id, 0.3 * (1.0 + 0.4 * step));
            }
            const FleetWindow w = fleet.tick();
            trace << describeWindow(fleet, w);
        }
        trace << describeEnd(fleet);
        return trace.str();
    });
}

TEST(LockstepGolden, UnservableTenantsPingPongUntilParked)
{
    // Every node keeps light tenants for the whole run, so the two
    // masstree@100% tenants — infeasible next to anything — bounce
    // between occupied nodes, evicted and re-placed, until their move
    // budget parks them. The queue stays empty throughout.
    checkAcrossThreads("lockstep_evictions", [] {
        FleetOptions o = fastFleet(3, 5);
        o.max_moves = 2;
        Fleet fleet(o);
        const std::vector<std::string>& lc = workloads::lcWorkloadNames();
        const std::vector<std::string>& bg = workloads::bgWorkloadNames();
        for (size_t i = 0; i < 3; ++i) {
            fleet.admit(workloads::lcJob(lc[i % lc.size()], 0.2));
            fleet.admit(workloads::bgJob(bg[i % bg.size()]));
        }
        fleet.admit(workloads::lcJob("masstree", 1.0));
        fleet.admit(workloads::lcJob("masstree", 1.0));
        std::ostringstream trace;
        for (int t = 0; t < 12; ++t) {
            const FleetWindow w = fleet.tick();
            trace << describeWindow(fleet, w);
        }
        trace << describeEnd(fleet);
        return trace.str();
    });
}

} // namespace
} // namespace cluster
} // namespace clite
