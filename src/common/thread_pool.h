/**
 * @file
 * Deterministic thread pool for embarrassingly parallel fan-out.
 *
 * The hot spots this pool serves — acquisition-candidate evaluation in
 * the BO loop and the independent workload-mix cells of the figure
 * sweeps — are pure index-addressed maps: task i reads shared immutable
 * state and writes only slot i of a result array. Under that contract
 * the output is a function of the index alone, so results are
 * bit-identical no matter how the OS schedules the workers (and
 * identical to serial execution with threads = 1, the escape hatch).
 * Randomized tasks keep the guarantee by deriving a per-task stream
 * with Rng::split(index) instead of sharing a generator.
 *
 * parallelFor is reentrant: the calling thread participates in the
 * work, so nested calls (a parallel sweep whose cells run a parallel
 * BO loop) complete even when every worker is busy — helper tasks that
 * never get scheduled find the index range exhausted and exit.
 *
 * submit() is the one non-blocking entry point: the fleet engine
 * hands each node step to the workers with it and waits only where it
 * needs the result. Determinism is then the submitter's
 * contract: a submitted job must own the state it writes, and the
 * submitter must join it before reading that state.
 */

#ifndef CLITE_COMMON_THREAD_POOL_H
#define CLITE_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace clite {

/**
 * Fixed-size worker pool executing index-parallel loops.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 1 means fully inline (serial)
     *     execution with no threads spawned. Values < 1 are clamped
     *     to 1.
     */
    explicit ThreadPool(int threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of threads that may run tasks (including the caller). */
    int threadCount() const { return threads_; }

    /**
     * Run fn(0) ... fn(n-1), blocking until every call has returned.
     * The caller participates, so this never deadlocks under nesting.
     * If any call throws, the exception with the lowest index is
     * rethrown after all claimed work finishes.
     *
     * @pre fn(i) writes only state owned by index i (determinism
     *     contract; not checkable, but everything here relies on it).
     */
    void parallelFor(size_t n, const std::function<void(size_t)>& fn);

    /**
     * Hand @p job to the workers and return at once. With
     * threadCount() == 1 there are no workers, so the job runs inline
     * before submit() returns. The job must not throw (a worker has
     * no caller to rethrow to; catch inside it), and whatever it
     * shares with the submitter must outlive it — hold it by
     * shared_ptr, as parallelFor's helpers do.
     */
    void submit(std::function<void()> job);

    /**
     * Run @p fn exactly once on every worker thread AND the caller —
     * the only way to reach each worker's thread_local state (the
     * pooled DES simulator, the GP scratch arena) for pre-warming,
     * since parallelFor's dynamic claiming makes no per-thread
     * placement promise. A rendezvous barrier inside the submitted
     * jobs forces distinct workers to take them, so every thread runs
     * fn once, no thread twice. Blocks until all calls return.
     *
     * Must not be called concurrently with other pool work (the
     * barrier would pin workers while that work queues behind it);
     * call it from set-up code, e.g. fleet/node construction.
     */
    void broadcast(const std::function<void()>& fn);

    /**
     * Index-parallel map: returns {f(0), ..., f(n-1)}. The result
     * type must be default-constructible.
     */
    template <typename F>
    auto
    parallelMap(size_t n, F&& f) -> std::vector<decltype(f(size_t(0)))>
    {
        std::vector<decltype(f(size_t(0)))> out(n);
        parallelFor(n, [&](size_t i) { out[i] = f(i); });
        return out;
    }

    /**
     * Pool size used by globalPool() when not overridden: the
     * CLITE_THREADS environment variable when set, otherwise the
     * hardware concurrency (at least 1).
     */
    static int defaultThreadCount();

  private:
    /** Enqueue a job for the workers (threads_ > 1 only). */
    void enqueue(std::function<void()> job);

    void workerLoop();

    int threads_;
    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/**
 * The process-wide pool shared by the BO loop and the bench sweeps.
 * Lazily constructed with defaultThreadCount() workers.
 */
ThreadPool& globalPool();

/**
 * Replace the global pool with one of @p threads workers (the
 * --threads=N escape hatch of the bench binaries; 1 = serial). Must
 * not be called while another thread is using globalPool().
 */
void setGlobalThreadCount(int threads);

} // namespace clite

#endif // CLITE_COMMON_THREAD_POOL_H
