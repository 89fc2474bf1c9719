#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace clite {

namespace {

/**
 * Shared state of one parallelFor call. Owned by shared_ptr: helper
 * jobs that only get scheduled after the loop has already completed
 * (all indices claimed by faster participants) still hold a valid
 * reference and exit immediately.
 */
struct ForLoopState
{
    std::atomic<size_t> next{0};    ///< Next unclaimed index.
    std::atomic<size_t> completed{0}; ///< Indices fully processed.
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;

    std::mutex mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;
    size_t error_index = size_t(-1);

    /** Claim-and-run loop shared by the caller and the helpers. */
    void
    run()
    {
        while (true) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                (*fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(mutex);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
            if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                n) {
                std::lock_guard<std::mutex> lk(mutex);
                done_cv.notify_all();
            }
        }
    }
};

} // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads)
{
    workers_.reserve(size_t(threads_ - 1));
    for (int t = 1; t < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        queue_.push(std::move(job));
    }
    cv_.notify_one();
}

void
ThreadPool::submit(std::function<void()> job)
{
    if (threads_ <= 1)
        job();
    else
        enqueue(std::move(job));
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(mutex_);
            cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping
            job = std::move(queue_.front());
            queue_.pop();
        }
        job();
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)>& fn)
{
    if (n == 0)
        return;
    if (threads_ <= 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto state = std::make_shared<ForLoopState>();
    state->n = n;
    state->fn = &fn;

    size_t helpers = size_t(threads_ - 1);
    if (helpers > n - 1)
        helpers = n - 1;
    for (size_t h = 0; h < helpers; ++h)
        enqueue([state] { state->run(); });

    // The caller claims indices too, then waits for stragglers.
    state->run();
    std::unique_lock<std::mutex> lk(state->mutex);
    state->done_cv.wait(lk, [&] {
        return state->completed.load(std::memory_order_acquire) == n;
    });
    if (state->error)
        std::rethrow_exception(state->error);
}

void
ThreadPool::broadcast(const std::function<void()>& fn)
{
    if (threads_ <= 1) {
        fn();
        return;
    }
    // One job per worker; each runs fn then parks at a rendezvous
    // until every job has run. A worker cannot claim a second job
    // while parked, so the jobs land on distinct workers by
    // construction.
    const int helpers = threads_ - 1;
    struct Rendezvous
    {
        std::mutex mutex;
        std::condition_variable arrived_cv;
        std::condition_variable done_cv;
        int arrived = 0;
        int finished = 0;
        std::exception_ptr error;
    };
    auto rv = std::make_shared<Rendezvous>();
    for (int h = 0; h < helpers; ++h) {
        enqueue([rv, &fn, helpers] {
            try {
                fn();
            } catch (...) {
                std::lock_guard<std::mutex> lk(rv->mutex);
                if (!rv->error)
                    rv->error = std::current_exception();
            }
            std::unique_lock<std::mutex> lk(rv->mutex);
            ++rv->arrived;
            rv->arrived_cv.notify_all();
            rv->arrived_cv.wait(lk,
                                [&] { return rv->arrived >= helpers; });
            ++rv->finished;
            rv->done_cv.notify_all();
        });
    }
    fn();
    std::unique_lock<std::mutex> lk(rv->mutex);
    rv->done_cv.wait(lk, [&] { return rv->finished >= helpers; });
    if (rv->error)
        std::rethrow_exception(rv->error);
}

int
ThreadPool::defaultThreadCount()
{
    if (const char* env = std::getenv("CLITE_THREADS")) {
        int v = std::atoi(env);
        if (v >= 1)
            return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? int(hw) : 1;
}

namespace {

std::unique_ptr<ThreadPool>&
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

} // namespace

ThreadPool&
globalPool()
{
    auto& slot = globalPoolSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>(ThreadPool::defaultThreadCount());
    return *slot;
}

void
setGlobalThreadCount(int threads)
{
    globalPoolSlot() = std::make_unique<ThreadPool>(threads);
}

} // namespace clite
