/**
 * @file
 * Multi-server queueing station: the discrete-event measurement behind
 * the DES performance-model backend.
 *
 * Models one latency-critical service the way the paper's testbed does:
 * a load generator (Poisson arrivals at the offered QPS) feeding c
 * worker cores; each request holds one core for a sampled service time.
 * Requests queue FIFO when all cores are busy. Response times
 * (queueing + service) are recorded so the harness can report the p95
 * tail latency over an observation window, exactly the quantity CLITE's
 * score function consumes.
 *
 * measureStation() runs the station as an FCFS recursion (Kiefer &
 * Wolfowitz): under FCFS on identical servers the k-th arrival is the
 * k-th request to start service, so the c times at which the servers
 * next fall idle are the whole queue state, and there is no event
 * queue. Draw order: each request draws its interarrival gap and then
 * its service time, in arrival order, from the caller's Rng (through an
 * RngLookahead, so the draws leave the recursion's dependency chain);
 * the first gap that lands past the window is drawn and ends the
 * window. The loop reuses thread-local buffers across calls, so a
 * QueueingSimModel window allocates nothing in steady state.
 * tests/sim/ keeps an event-driven simulation of the same queue, with
 * the same draw order, as the oracle, and pins every result field and
 * the RNG end state, Box-Muller cache included, against it, bit for
 * bit, for every service kind (tests/sim/queueing_fast_test.cpp).
 */

#ifndef CLITE_SIM_QUEUEING_H
#define CLITE_SIM_QUEUEING_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace clite {
namespace sim {

/** Result of a windowed tail-latency measurement. */
struct TailMeasurement
{
    double p95 = 0.0;      ///< 95th-percentile response time (seconds).
    double p99 = 0.0;      ///< 99th-percentile response time (seconds).
    double mean = 0.0;     ///< Mean response time (seconds).
    size_t completed = 0;  ///< Requests completed in the window.
    double throughput = 0.0; ///< Completions per second in the window.
};

/**
 * Smallest request budget effectiveWindow() will honor: below this the
 * percentile estimates are all noise, so tighter budgets are clamped.
 */
constexpr uint64_t kMinEventBudget = 64;

/**
 * Measured window implied by an event budget: the span of
 * min(window, budget / λ) seconds (budget clamped to kMinEventBudget)
 * that keeps the expected number of measured requests at or under
 * @p event_budget. 0 means unlimited — the full window. A budgeted
 * measurement is bit-identical to an unbudgeted measurement over this
 * shorter window, so it is an unbiased estimate whose sampling error
 * shrinks as the budget grows (accuracy contract in docs/MODEL.md;
 * tolerance pinned by tests/sim/queueing_budget_test.cpp).
 */
double effectiveWindow(double window, double arrival_rate,
                       uint64_t event_budget);

/** Service-time distribution of a measured station. */
struct ServiceModel
{
    enum class Kind {
        Exponential,  ///< M/M/c (the analytic cross-check case).
        LogNormal,    ///< Light-tailed real request mix.
        Fixed,        ///< Deterministic service (M/D/c).
        BoundedPareto ///< Heavy-tailed: rare requests dominate the tail.
    };

    Kind kind = Kind::Exponential;
    /** Mean service time in seconds (all kinds). */
    double mean_service = 0.001;
    /** Log-sigma (LogNormal only; must be > 0). */
    double sigma = 0.45;
    /** Tail index (BoundedPareto only; > 1 so the mean is finite). */
    double pareto_alpha = 1.5;
    /** Support ratio H/L (BoundedPareto only; > 1). */
    double pareto_tail_ratio = 100.0;
};

/**
 * Simulate an M/G/c station for @p warmup + @p window seconds and
 * summarize the measured window (the paper's two-second observation
 * period). Every ServiceModel field the kind reads is validated up
 * front, before the zero-load early return. BoundedPareto draws by
 * inverse CDF (one uniform per request), parameterized so the
 * distribution mean equals service.mean_service.
 *
 * @param servers Number of servers c (>= 1).
 * @param arrival_rate Offered load λ (requests/second, >= 0).
 * @param service Service-time distribution.
 * @param warmup Transient to discard (seconds).
 * @param window Measured window (seconds, > 0).
 * @param rng Randomness.
 * @param event_budget Cap on the expected number of measured requests;
 *     0 (the default) measures the full window. See effectiveWindow().
 * @throws clite::Error on an invalid station or service model.
 */
TailMeasurement measureStation(int servers, double arrival_rate,
                               const ServiceModel& service, double warmup,
                               double window, Rng& rng,
                               uint64_t event_budget = 0);

/**
 * Summarize one window's response times (seconds) over a measured span
 * of @p window seconds, as measureStation() does. p95 and p99 are
 * bit-identical to stats::percentile of @p response, whatever its
 * order; the mean is summed in the order given (measureStation() passes
 * arrival order). Runs out of the calling thread's measurement scratch.
 */
TailMeasurement summarizeWindow(const std::vector<double>& response,
                                double window);

/**
 * Pre-size the CALLING thread's measurement scratch — the pooled
 * per-thread slab measureStation() runs out of — so a node's first
 * observation window pays no growth reallocations (first-window
 * jitter). Reserves the server free times for @p max_servers and the
 * response and selection buffers for @p expected_requests completions
 * (≈ λ · window for the hottest co-located job). thread_local state
 * is reachable only from its own thread: to warm a pool's workers,
 * run this under ThreadPool::broadcast(). Idempotent and monotone —
 * repeat calls only ever grow the reservation.
 */
void prewarmMeasurementScratch(int max_servers, size_t expected_requests);

} // namespace sim
} // namespace clite

#endif // CLITE_SIM_QUEUEING_H
