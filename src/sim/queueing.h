/**
 * @file
 * Multi-server queueing station: the discrete-event measurement behind
 * the DES performance-model backend.
 *
 * Models one latency-critical service the way the paper's testbed does:
 * a load generator (Poisson arrivals at the offered QPS) feeding c
 * worker cores; each request holds one core for an exponentially
 * distributed service time, so the station is the M/M/c queue the
 * analytic backend solves in closed form. Requests queue FIFO when all
 * cores are busy. Response times (queueing + service) are recorded so
 * the harness can report the p95 tail latency over an observation
 * window, exactly the quantity CLITE's score function consumes.
 *
 * measureStation() runs the station as an FCFS recursion (Kiefer &
 * Wolfowitz): under FCFS on identical servers the k-th arrival is the
 * k-th request to start service, on whichever server falls idle first,
 * so the c times at which the servers next fall idle are the whole
 * queue state, and there is no event queue. Only their values decide a
 * response, never which server holds which, so the loop keeps them as
 * a sorted multiset and merges each departure back in with a
 * branch-free pass. Below the knee (utilization ρ = λ·mean_service/c
 * under kRhoKnee) a window starts in a state drawn from the M/M/c
 * stationary law, the state the paper's window finds on a server that
 * is already running, and measures every request that arrives in it;
 * at or above the knee no stationary law exists, so the window starts
 * empty and simulates a warm-up first. Every draw is a unit exponential from the
 * caller's Rng, taken through an RngLookahead so the draws leave the
 * recursion's dependency chain; the order is spelled out at
 * measureStation(). The loop reuses thread-local buffers across calls,
 * so a QueueingSimModel window allocates nothing in steady state.
 * tests/sim/ keeps an event-driven simulation of the same queue, with
 * the same draw order, as the oracle, and pins every result field and
 * the RNG end state, Box-Muller cache included, against it, bit for
 * bit (tests/sim/queueing_fast_test.cpp).
 */

#ifndef CLITE_SIM_QUEUEING_H
#define CLITE_SIM_QUEUEING_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace clite {
namespace sim {

/**
 * Utilization ρ = λ·mean_service/c at and above which an M/M/c station
 * is treated as overloaded: its stationary law is missing (ρ >= 1) or
 * too slow to mix for a window to see it. measureStation() starts such
 * a station empty and simulates the warm-up, and
 * workloads::closedFormMeasure() extrapolates linearly from the knee.
 */
constexpr double kRhoKnee = 0.995;

/** The number of requests at an M/M/c station at one instant. */
struct StationOccupancy
{
    int busy = 0;         ///< Servers in service (all c when any waits).
    uint64_t waiting = 0; ///< Requests in the line.
};

/**
 * The stationary occupancy of an M/M/c station with @p offered_load
 * a = λ·mean_service below kRhoKnee·c, by inversion of two unit
 * exponentials. With probability stats::erlangC(c, a) (@p e_branch
 * decides) all c servers are busy and the line holds
 * ⌊@p e_count / −ln ρ⌋ requests, a Geometric(1 − ρ) count; otherwise
 * the line is empty and the busy count is Poisson(a) truncated to
 * [0, c), inverted at @p e_count over the counts taken outward from
 * the mode (m, m + 1, ..., c − 1, then m − 1, ..., 0). Each weight is
 * a^n/n! relative to the mode's, built by the ratio recursion
 * t(n + 1) = t(n)·a/(n + 1), so none exceeds 1 or overflows at any c.
 *
 * @throws clite::Error when c < 1 or ρ = a/c is not in [0, kRhoKnee).
 */
StationOccupancy stationaryOccupancy(int servers, double offered_load,
                                     double e_branch, double e_count);

/** Result of a windowed tail-latency measurement. */
struct TailMeasurement
{
    double p95 = 0.0;      ///< 95th-percentile response time (seconds).
    double p99 = 0.0;      ///< 99th-percentile response time (seconds).
    double mean = 0.0;     ///< Mean response time (seconds).
    size_t completed = 0;  ///< Requests measured in the window.
    double throughput = 0.0; ///< Measured requests per second.
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

/**
 * Measure an M/M/c station over one observation window (the paper's
 * two-second period). Every argument is validated up front, before the
 * zero-load early return; an infinite rate or time is rejected, since
 * the loop that simulated it would never end.
 *
 * Below the knee (ρ < kRhoKnee) the window starts at t = 0 in a
 * stationary state and measures every request that arrives in
 * (0, span], each at departure − arrival; by PASTA each one is a
 * stationary sample, and @p warmup is not read. At or above the knee
 * the window starts empty at t = 0, simulates @p warmup seconds first
 * and measures the requests that depart in (warmup, warmup + span].
 * Here span = effectiveWindow(window, λ, event_budget).
 *
 * Draw order, every draw a unit exponential E (Rng::exponential(1.0)
 * has the same bits); a service time is E / μ with μ = 1 / mean_service,
 * the bits Rng::exponential(μ) returns:
 *  1. below the knee only, the start state: the branch draw and the
 *     count draw of stationaryOccupancy(); then one residual service
 *     time for each busy server, servers 0, 1, ... in order (service
 *     is memoryless); then one service time for each waiting request,
 *     in line order, which starts when the first server falls idle.
 *     No waiting request is measured;
 *  2. then, for each request in arrival order from t = 0, its
 *     interarrival gap and then its service time; it starts at
 *     max(arrival, earliest server-free time). The first gap that
 *     lands past the window is drawn and ends the window.
 *
 * @param servers Number of servers c (>= 1).
 * @param arrival_rate Offered load λ (requests/second, finite, >= 0).
 * @param mean_service Mean of the exponential service time (seconds,
 *     > 0).
 * @param warmup Transient simulated and discarded at or above the
 *     knee (seconds, finite, >= 0).
 * @param window Measured window (seconds, finite, > 0).
 * @param rng Randomness.
 * @param event_budget Cap on the expected number of measured requests;
 *     0 (the default) measures the full window. See effectiveWindow().
 * @throws clite::Error on an invalid station.
 */
TailMeasurement measureStation(int servers, double arrival_rate,
                               double mean_service, double warmup,
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
