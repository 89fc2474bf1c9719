/**
 * @file
 * Tests for the deterministic thread pool: full index coverage,
 * bit-identical results regardless of pool size and completion order,
 * reentrancy (nested parallelFor), exception propagation, and
 * non-blocking submit().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace clite {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const size_t n = 137;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroAndSingleTaskEdgeCases)
{
    ThreadPool pool(3);
    int calls = 0;
    pool.parallelFor(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](size_t i) { calls += int(i) + 1; });
    EXPECT_EQ(calls, 1);
}

/**
 * The determinism contract: each task derives its own RNG stream from
 * its index and writes only its own slot, so the result vector must be
 * bit-identical across pool sizes — and to a plain serial loop — even
 * though task completion order is shuffled by variable task durations.
 */
TEST(ThreadPool, BitIdenticalAcrossPoolSizesUnderShuffledCompletion)
{
    const size_t n = 64;
    auto task = [](size_t i) {
        Rng rng = Rng(9001).split(uint64_t(i));
        // Variable amount of work per index so threads finish out of
        // order: index i draws i+1 samples and folds them together.
        double acc = 0.0;
        for (size_t k = 0; k <= i; ++k)
            acc += std::sin(rng.uniform(-3.0, 3.0)) * double(k + 1);
        return acc;
    };

    std::vector<double> serial(n);
    for (size_t i = 0; i < n; ++i)
        serial[i] = task(i);

    for (int threads : {1, 2, 4, 7}) {
        ThreadPool pool(threads);
        std::vector<double> out = pool.parallelMap(n, task);
        ASSERT_EQ(out.size(), n);
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], serial[i])
                << "threads=" << threads << " index=" << i;
    }
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    // Outer cells each run an inner parallelFor on the same pool; the
    // caller-participates design must complete this without deadlock
    // even when every worker is busy with outer cells.
    ThreadPool pool(2);
    const size_t outer = 6, inner = 10;
    std::vector<std::vector<int>> result(outer);
    pool.parallelFor(outer, [&](size_t i) {
        std::vector<int> local(inner);
        pool.parallelFor(inner,
                         [&](size_t j) { local[j] = int(i * 100 + j); });
        result[i] = std::move(local);
    });
    for (size_t i = 0; i < outer; ++i)
        for (size_t j = 0; j < inner; ++j)
            EXPECT_EQ(result[i][j], int(i * 100 + j));
}

TEST(ThreadPool, LowestIndexExceptionPropagates)
{
    ThreadPool pool(4);
    try {
        pool.parallelFor(16, [&](size_t i) {
            if (i % 2 == 1)
                throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "expected parallelFor to rethrow";
    } catch (const std::runtime_error& e) {
        // Index 1 is the lowest thrower and must win regardless of
        // which worker hit its exception first.
        EXPECT_STREQ(e.what(), "task 1");
    }
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ids(8);
    pool.parallelFor(8, [&](size_t i) { ids[i] = std::this_thread::get_id(); });
    for (const auto& id : ids)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ClampsNonPositiveThreadCounts)
{
    EXPECT_EQ(ThreadPool(0).threadCount(), 1);
    EXPECT_EQ(ThreadPool(-3).threadCount(), 1);
}

TEST(ThreadPool, GlobalPoolOverride)
{
    setGlobalThreadCount(3);
    EXPECT_EQ(globalPool().threadCount(), 3);
    setGlobalThreadCount(1);
    EXPECT_EQ(globalPool().threadCount(), 1);
}

TEST(ThreadPool, SubmitRunsInlineWhenSerialAndInTheBackgroundOtherwise)
{
    // A serial pool has no worker to hand the job to: it runs before
    // submit() returns.
    ThreadPool serial(1);
    bool ran = false;
    serial.submit([&] { ran = true; });
    EXPECT_TRUE(ran);

    // A parallel pool returns at once and a worker runs the job: the
    // job blocks until the caller releases it, which would deadlock
    // were submit() to run it inline.
    ThreadPool pool(2);
    struct Shared
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool released = false;
        bool done = false;
    };
    auto shared = std::make_shared<Shared>();
    pool.submit([shared] {
        std::unique_lock<std::mutex> lk(shared->mutex);
        shared->cv.wait(lk, [&] { return shared->released; });
        shared->done = true;
        shared->cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(shared->mutex);
    shared->released = true;
    shared->cv.notify_all();
    shared->cv.wait(lk, [&] { return shared->done; });
    EXPECT_TRUE(shared->done);
}

} // namespace
} // namespace clite
