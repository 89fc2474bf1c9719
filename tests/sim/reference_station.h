/**
 * @file
 * The DES test oracle: the windowed tail-latency measurement of
 * sim::measureStation spelled out in simulation primitives — a
 * QueueingStation on the generic event-queue Simulator.
 *
 * The production loop in sim/queueing.h computes each response from
 * the FCFS recursion over the servers' next-idle times; this oracle
 * simulates the same queue event by event instead: arrivals and
 * departures on the generic calendar, a FIFO waiting line, a server
 * handed to the head of the line at each departure. Both draw from the
 * RNG in the same order — each request's interarrival gap, then its
 * service time, at its arrival — so every TailMeasurement field (the
 * mean summed in arrival order) and the RNG end state must match bit
 * for bit (pinned by queueing_fast_test.cpp).
 */

#ifndef CLITE_TESTS_SIM_REFERENCE_STATION_H
#define CLITE_TESTS_SIM_REFERENCE_STATION_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "event_queue.h"
#include "sim/queueing.h"

namespace clite {
namespace sim {

/**
 * A c-server FIFO queueing station driven by Poisson arrivals, with
 * exponential service (M/M/c).
 */
class QueueingStation
{
  public:
    /**
     * @param simulator Event core; must outlive the station.
     * @param servers Number of servers c (>= 1).
     * @param arrival_rate Poisson arrival rate λ in requests/second
     *     (0 disables arrivals).
     * @param mean_service Mean service time in seconds (> 0).
     * @param rng Randomness; must outlive the station.
     */
    QueueingStation(Simulator& simulator, int servers, double arrival_rate,
                    double mean_service, Rng& rng);

    /** Begin generating arrivals (schedules the first arrival). */
    void start();

    /**
     * Drop response times recorded so far — used to discard warm-up
     * transients before the measured observation window.
     */
    void resetMeasurements();

    /** Response times (seconds) completed since the last reset, in
     *  departure order. */
    const std::vector<double>& responseTimes() const { return response_; }

    /** The same response times in the order their requests arrived. */
    std::vector<double> responseTimesInArrivalOrder() const;

    /** Requests completed since the last reset. */
    size_t completedCount() const { return response_.size(); }

    /** Requests currently waiting (excludes in-service). */
    size_t queuedCount() const { return waiting_.size(); }

    /** Servers currently busy. */
    int busyServers() const { return busy_; }

  private:
    /** One request: its arrival order, stamp and drawn service time. */
    struct Request
    {
        uint64_t index;
        SimTime arrival;
        double service;
    };

    /** Handle one arrival: draw its service, then enter service or
     *  queue. */
    void onArrival();

    /** Start service for @p request. */
    void beginService(const Request& request);

    /** A server finished @p request. */
    void onDeparture(const Request& request);

    Simulator& sim_;
    int servers_;
    double arrival_rate_;
    double mean_service_;
    Rng& rng_;

    int busy_ = 0;
    uint64_t arrivals_ = 0;
    std::deque<Request> waiting_;
    std::vector<double> response_;
    std::vector<uint64_t> response_index_; // arrival index per response
};

/**
 * sim::measureStation through QueueingStation on the generic Simulator
 * — same parameters, same result, bit for bit. Percentiles come from
 * a full-sort stats::percentile, and the mean is summed in arrival
 * order.
 */
TailMeasurement measureStationReference(int servers, double arrival_rate,
                                        double mean_service, double warmup,
                                        double window, Rng& rng,
                                        uint64_t event_budget = 0);

} // namespace sim
} // namespace clite

#endif // CLITE_TESTS_SIM_REFERENCE_STATION_H
