#include "reference_station.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "stats/summary.h"

namespace clite {
namespace sim {

QueueingStation::QueueingStation(Simulator& simulator, int servers,
                                 double arrival_rate, double mean_service,
                                 Rng& rng)
    : sim_(simulator),
      servers_(servers),
      arrival_rate_(arrival_rate),
      mean_service_(mean_service),
      rng_(rng)
{
    CLITE_CHECK(servers_ >= 1, "station needs >= 1 server, got " << servers_);
    CLITE_CHECK(arrival_rate_ >= 0.0, "arrival rate must be >= 0");
    CLITE_CHECK(mean_service_ > 0.0, "mean service time must be > 0");
}

void
QueueingStation::start()
{
    if (arrival_rate_ <= 0.0)
        return;
    sim_.schedule(rng_.exponential(arrival_rate_), [this] { onArrival(); });
}

void
QueueingStation::resetMeasurements()
{
    response_.clear();
    response_index_.clear();
}

std::vector<double>
QueueingStation::responseTimesInArrivalOrder() const
{
    std::vector<size_t> order(response_.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
        return response_index_[a] < response_index_[b];
    });
    std::vector<double> out;
    out.reserve(order.size());
    for (size_t i : order)
        out.push_back(response_[i]);
    return out;
}

void
QueueingStation::onArrival()
{
    // The request's own service time first, then the gap to the next
    // arrival (renewal process): one gap and one service per request,
    // in arrival order.
    Request request{arrivals_++, sim_.now(),
                    rng_.exponential(1.0 / mean_service_)};
    sim_.schedule(rng_.exponential(arrival_rate_), [this] { onArrival(); });

    if (busy_ < servers_)
        beginService(request);
    else
        waiting_.push_back(request);
}

void
QueueingStation::beginService(const Request& request)
{
    ++busy_;
    sim_.schedule(request.service,
                  [this, request] { onDeparture(request); });
}

void
QueueingStation::onDeparture(const Request& request)
{
    --busy_;
    response_.push_back(sim_.now() - request.arrival);
    response_index_.push_back(request.index);
    if (!waiting_.empty()) {
        Request next = waiting_.front();
        waiting_.pop_front();
        beginService(next);
    }
}

TailMeasurement
measureStationReference(int servers, double arrival_rate,
                        double mean_service, double warmup, double window,
                        Rng& rng, uint64_t event_budget)
{
    CLITE_CHECK(window > 0.0, "measurement window must be > 0");

    const double span = effectiveWindow(window, arrival_rate, event_budget);
    Simulator simulator;
    QueueingStation station(simulator, servers, arrival_rate, mean_service,
                            rng);
    station.start();
    simulator.runUntil(warmup);
    station.resetMeasurements();
    simulator.runUntil(warmup + span);

    const std::vector<double> rt = station.responseTimesInArrivalOrder();
    TailMeasurement out;
    out.completed = rt.size();
    out.throughput = double(rt.size()) / span;
    if (!rt.empty()) {
        // The production loop's four-accumulator summation order, so
        // the mean compares bit for bit.
        double s[4] = {0.0, 0.0, 0.0, 0.0};
        const size_t full = rt.size() / 4 * 4;
        for (size_t i = 0; i < full; ++i)
            s[i % 4] += rt[i];
        for (size_t i = full; i < rt.size(); ++i)
            s[0] += rt[i];
        out.mean = ((s[0] + s[1]) + (s[2] + s[3])) / double(rt.size());
        out.p95 = stats::percentile(rt, 0.95);
        out.p99 = stats::percentile(rt, 0.99);
    }
    return out;
}

} // namespace sim
} // namespace clite
