/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "event_queue.h"

namespace clite {
namespace sim {
namespace {

TEST(Simulator, ProcessesEventsInTimeOrder)
{
    Simulator s;
    std::vector<int> order;
    s.schedule(3.0, [&] { order.push_back(3); });
    s.schedule(1.0, [&] { order.push_back(1); });
    s.schedule(2.0, [&] { order.push_back(2); });
    s.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
    EXPECT_EQ(s.eventsProcessed(), 3u);
}

TEST(Simulator, FifoTieBreakAtEqualTimes)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        s.schedule(1.0, [&order, i] { order.push_back(i); });
    s.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive)
{
    Simulator s;
    int fired = 0;
    s.schedule(1.0, [&] { ++fired; });
    s.schedule(2.0, [&] { ++fired; });
    s.schedule(2.0001, [&] { ++fired; });
    s.runUntil(2.0);
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(s.now(), 2.0);
    EXPECT_EQ(s.pendingEvents(), 1u);
    s.runUntil(3.0);
    EXPECT_EQ(fired, 3);
    EXPECT_DOUBLE_EQ(s.now(), 3.0); // clock advances to the boundary
}

TEST(Simulator, CallbacksCanScheduleMoreEvents)
{
    Simulator s;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            s.schedule(1.0, chain);
    };
    s.schedule(1.0, chain);
    s.runToCompletion();
    EXPECT_EQ(depth, 5);
    EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, ScheduleAtAbsoluteTime)
{
    Simulator s;
    bool fired = false;
    s.scheduleAt(4.5, [&] { fired = true; });
    s.runUntil(4.0);
    EXPECT_FALSE(fired);
    s.runUntil(5.0);
    EXPECT_TRUE(fired);
}

TEST(Simulator, SchedulingIntoThePastThrows)
{
    Simulator s;
    s.schedule(1.0, [] {});
    s.runToCompletion();
    EXPECT_THROW(s.scheduleAt(0.5, [] {}), Error);
    EXPECT_THROW(s.schedule(-0.1, [] {}), Error);
}

TEST(Simulator, ClearPendingDropsEventsKeepsClock)
{
    Simulator s;
    int fired = 0;
    s.schedule(1.0, [&] { ++fired; });
    s.runUntil(1.0);
    s.schedule(1.0, [&] { ++fired; });
    s.clearPending();
    s.runToCompletion();
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(s.now(), 1.0);
    EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Simulator, ClearKeepsCapacityResetsState)
{
    Simulator s;
    s.reserve(64);
    int fired = 0;
    s.schedule(2.0, [&] { ++fired; });
    s.runToCompletion();
    s.clear();
    EXPECT_DOUBLE_EQ(s.now(), 0.0);
    EXPECT_EQ(s.eventsProcessed(), 0u);
    EXPECT_EQ(s.pendingEvents(), 0u);
    s.schedule(0.5, [&] { ++fired; });
    s.runToCompletion();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(s.now(), 0.5);
}

/**
 * The pooled slab/heap pop order must be exactly the (time, seq) order
 * of the std::priority_queue implementation it replaced. Random
 * schedules — with deliberate duplicate times to exercise the FIFO
 * tie-break, and events scheduled from inside callbacks to exercise
 * mid-run heap growth — are replayed against a reference priority
 * queue over the same (time, seq) keys.
 */
TEST(Simulator, PopOrderMatchesReferencePriorityQueue)
{
    struct Key
    {
        double time;
        uint64_t seq;
        int id;
    };
    struct After
    {
        // priority_queue is a max-heap; invert the (time, seq) order.
        bool operator()(const Key& a, const Key& b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    for (uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        Simulator s;
        std::priority_queue<Key, std::vector<Key>, After> ref;
        std::vector<int> sim_order;
        uint64_t seq = 0;
        int next_id = 0;

        // A quarter of the delays are drawn from a coarse grid so many
        // events collide at the same timestamp.
        auto draw_delay = [&] {
            if (rng.uniform() < 0.25)
                return 0.125 * double(rng.uniformInt(0, 7));
            return rng.uniform();
        };

        // Initial batch, plus one chaining event that keeps scheduling
        // followers mid-run (heap grows while draining).
        std::function<void(int)> chain = [&](int remaining) {
            if (remaining <= 0)
                return;
            const double delay = draw_delay();
            const int id = next_id++;
            ref.push({s.now() + delay, seq++, id});
            s.schedule(delay, [&, id, remaining] {
                sim_order.push_back(id);
                chain(remaining - 1);
            });
        };
        for (int i = 0; i < 200; ++i) {
            const double delay = draw_delay();
            const int id = next_id++;
            ref.push({delay, seq++, id});
            s.schedule(delay, [&, id] { sim_order.push_back(id); });
        }
        chain(50);
        s.runToCompletion();

        std::vector<int> ref_order;
        while (!ref.empty()) {
            ref_order.push_back(ref.top().id);
            ref.pop();
        }
        ASSERT_EQ(sim_order.size(), ref_order.size()) << "seed " << seed;
        EXPECT_EQ(sim_order, ref_order) << "seed " << seed;
    }
}

} // namespace
} // namespace sim
} // namespace clite
