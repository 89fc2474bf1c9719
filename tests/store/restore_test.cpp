/**
 * @file
 * OnlineManager ⇄ ProfileStore integration: checkpoint-on-window,
 * warm restore on restart (the crash-recovery path), similar-mix
 * seeding, and the cold-start guarantee when the store holds nothing
 * usable. These tests drive the REAL control loop — the same wiring
 * the fleet and the warm_start bench use.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "store/profile_store.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

namespace clite {
namespace store {
namespace {

std::vector<workloads::JobSpec>
mixA(double load0 = 0.3)
{
    return {
        workloads::lcJob("img-dnn", load0),
        workloads::lcJob("memcached", 0.2),
        workloads::bgJob("fluidanimate"),
    };
}

platform::SimulatedServer
makeServer(std::vector<workloads::JobSpec> jobs, uint64_t seed = 5)
{
    return platform::SimulatedServer(
        platform::ServerConfig::xeonSilver4114(), std::move(jobs),
        std::make_unique<workloads::AnalyticModel>(), seed, 0.02);
}

core::CliteOptions
fastClite(uint64_t seed = 1)
{
    core::CliteOptions o;
    o.max_iterations = 12;
    o.polish_iterations = 3;
    o.seed = seed;
    return o;
}

TEST(ManagerStore, CheckpointOnInitializeAndEveryWindow)
{
    ProfileStore store;
    auto server = makeServer(mixA());
    core::OnlineManager manager(server, fastClite(), {}, &store);
    manager.initialize();
    EXPECT_EQ(std::string(manager.warmSource()), "cold");
    EXPECT_EQ(store.size(), 1u);

    std::optional<Snapshot> after_init =
        store.find(MixSignature::of(server));
    ASSERT_TRUE(after_init.has_value());
    EXPECT_EQ(after_init->windows, 0u);

    for (int w = 0; w < 3; ++w)
        manager.tick();
    std::optional<Snapshot> after_ticks =
        store.find(MixSignature::of(server));
    ASSERT_TRUE(after_ticks.has_value());
    EXPECT_EQ(after_ticks->windows, 3u);
    EXPECT_EQ(store.size(), 1u) << "same mix must stay one entry";
}

TEST(ManagerStore, RestartRestoresFromCheckpointAndConvergesFaster)
{
    ProfileStore store;

    // First life: learn the mix and settle.
    auto server1 = makeServer(mixA(), 5);
    core::OnlineManager first(server1, fastClite(1), {}, &store);
    const core::ControllerResult& cold = first.initialize();
    ASSERT_TRUE(cold.feasible);
    for (int w = 0; w < 3; ++w)
        first.tick();

    // "Crash": the manager object is gone; only the store survives.
    // Second life on the same mix (fresh server, different seeds).
    auto server2 = makeServer(mixA(), 6);
    core::OnlineManager second(server2, fastClite(2), {}, &store);
    const core::ControllerResult& warm = second.initialize();
    EXPECT_EQ(std::string(second.warmSource()), "exact");
    ASSERT_TRUE(warm.feasible);

    // The restored incumbent is the first configuration re-evaluated,
    // so the warm run proves feasibility no later than the cold run —
    // typically at its very first sample.
    EXPECT_LE(warm.firstFeasibleSample(), cold.firstFeasibleSample());
    EXPECT_EQ(warm.firstFeasibleSample(), 0);
}

TEST(ManagerStore, SimilarMixSeedsWhenLoadsDrifted)
{
    ProfileStore store;
    auto server1 = makeServer(mixA(0.3), 5);
    core::OnlineManager first(server1, fastClite(1), {}, &store);
    first.initialize();

    // Same jobs at a drifted load: inside the default max_distance.
    auto server2 = makeServer(mixA(0.4), 6);
    core::OnlineManager second(server2, fastClite(2), {}, &store);
    second.initialize();
    EXPECT_EQ(std::string(second.warmSource()), "similar");

    // Far outside the distance bound: cold.
    auto server3 = makeServer(mixA(0.9), 7);
    core::OnlineManager third(server3, fastClite(3), {}, &store);
    third.initialize();
    EXPECT_EQ(std::string(third.warmSource()), "cold");
}

TEST(ManagerStore, ForeignOrNoStoreMeansColdStart)
{
    // No store attached.
    auto server1 = makeServer(mixA(), 5);
    core::OnlineManager bare(server1, fastClite());
    bare.initialize();
    EXPECT_EQ(std::string(bare.warmSource()), "cold");

    // A store holding only an unrelated mix.
    ProfileStore store;
    auto other = makeServer({workloads::lcJob("xapian", 0.5),
                             workloads::bgJob("canneal")},
                            9);
    core::OnlineManager seed_mgr(other, fastClite(1), {}, &store);
    seed_mgr.initialize();

    auto server2 = makeServer(mixA(), 6);
    core::OnlineManager manager(server2, fastClite(2), {}, &store);
    manager.initialize();
    EXPECT_EQ(std::string(manager.warmSource()), "cold");
}

TEST(ManagerStore, PersistedStoreSurvivesProcessRestartShape)
{
    // The full durability path: checkpoint → saveDir → fresh store →
    // loadDir → warm restore, as a restarted process would run it.
    const std::string dir = testing::TempDir() + "clite_restore_test";
    ProfileStore store;
    auto server1 = makeServer(mixA(), 5);
    core::OnlineManager first(server1, fastClite(1), {}, &store);
    first.initialize();
    ASSERT_EQ(store.saveDir(dir), 1u);

    ProfileStore reloaded;
    ASSERT_EQ(reloaded.loadDir(dir), 1u);
    auto server2 = makeServer(mixA(), 6);
    core::OnlineManager second(server2, fastClite(2), {}, &reloaded);
    second.initialize();
    EXPECT_EQ(std::string(second.warmSource()), "exact");
}

TEST(ManagerStore, MixChangeConsultsTheStoreForTheNewMix)
{
    ProfileStore store;

    // Teach the store the FOUR-job mix first.
    std::vector<workloads::JobSpec> four = mixA();
    four.push_back(workloads::bgJob("canneal"));
    auto teacher = makeServer(four, 5);
    core::OnlineManager teach_mgr(teacher, fastClite(1), {}, &store);
    teach_mgr.initialize();

    // A three-job manager grows to the four-job mix: the mix-change
    // re-optimization finds the taught prior.
    auto server = makeServer(mixA(), 6);
    core::OnlineManager manager(server, fastClite(2), {}, &store);
    manager.initialize();
    EXPECT_EQ(std::string(manager.warmSource()), "cold");

    server.addJob(workloads::bgJob("canneal"));
    manager.notifyMixChange();
    core::OnlineManager::Tick t = manager.tick();
    EXPECT_TRUE(t.reoptimized);
    EXPECT_EQ(t.reason, "mix-change");
    EXPECT_EQ(std::string(manager.warmSource()), "exact");
}

TEST(ManagerStore, PrefetchedLookupIsUsedAndALaterMixChangeDiscardsIt)
{
    // The store read of a search can be made ahead of it (the async
    // fleet engine makes it at dispatch): a checkpoint written between
    // the read and the search does not reach that search.
    ProfileStore store;
    auto server = makeServer(mixA(), 6);
    core::OnlineManager manager(server, fastClite(2), {}, &store);
    manager.prefetchWarmStart(); // the store is still empty
    auto teacher = makeServer(mixA(), 5);
    core::OnlineManager(teacher, fastClite(1), {}, &store).initialize();
    ASSERT_EQ(store.size(), 1u);
    manager.initialize();
    EXPECT_EQ(std::string(manager.warmSource()), "cold");

    // A mix change notified after the read discards it: the search
    // looks the store up itself and finds the prior taught meanwhile.
    std::vector<workloads::JobSpec> four = mixA();
    four.push_back(workloads::bgJob("canneal"));
    server.addJob(workloads::bgJob("canneal"));
    manager.notifyMixChange();
    manager.prefetchWarmStart(); // nothing stored for four jobs yet
    auto teacher4 = makeServer(four, 7);
    core::OnlineManager(teacher4, fastClite(3), {}, &store).initialize();
    manager.notifyMixChange();
    EXPECT_TRUE(manager.tick().reoptimized);
    EXPECT_EQ(std::string(manager.warmSource()), "exact");
}

TEST(ManagerStore, CrashRecaptureUnderFaultsRestoresFromCheckpoint)
{
    // The fault-tolerant loop keeps checkpointing through glitchy
    // telemetry, and a controller rebuilt after a crash restores from
    // the last checkpoint even when its first life's windows were
    // partly quarantined.
    ProfileStore store;
    auto server = makeServer(mixA(), 5);
    platform::FaultPlan plan;
    plan.dropout_prob = 0.3;
    plan.spike_prob = 0.2;
    server.setFaultInjector(
        std::make_shared<platform::FaultInjector>(plan, 77));

    core::OnlineManager first(server, fastClite(1), {}, &store);
    first.initialize();
    for (int w = 0; w < 6; ++w)
        first.tick();
    ASSERT_EQ(store.size(), 1u);

    auto server2 = makeServer(mixA(), 6);
    core::OnlineManager second(server2, fastClite(2), {}, &store);
    second.initialize();
    EXPECT_EQ(std::string(second.warmSource()), "exact");
}

} // namespace
} // namespace store
} // namespace clite
