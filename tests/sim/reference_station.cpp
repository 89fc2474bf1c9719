#include "reference_station.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "stats/distributions.h"
#include "stats/summary.h"

namespace clite {
namespace sim {

QueueingStation::QueueingStation(Simulator& simulator, int servers,
                                 double arrival_rate, ServiceSampler sampler,
                                 Rng& rng)
    : sim_(simulator),
      servers_(servers),
      arrival_rate_(arrival_rate),
      sampler_(std::move(sampler)),
      rng_(rng)
{
    CLITE_CHECK(servers_ >= 1, "station needs >= 1 server, got " << servers_);
    CLITE_CHECK(arrival_rate_ >= 0.0, "arrival rate must be >= 0");
    CLITE_CHECK(sampler_ != nullptr, "station needs a service sampler");
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
    Request request{arrivals_++, sim_.now(), sampler_(rng_)};
    CLITE_ASSERT(request.service >= 0.0, "negative service time sampled");
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

namespace {

QueueingStation::ServiceSampler
samplerFor(const ServiceModel& service)
{
    const double mean = service.mean_service;
    switch (service.kind) {
    case ServiceModel::Kind::Exponential:
        return [mean](Rng& r) { return r.exponential(1.0 / mean); };
    case ServiceModel::Kind::LogNormal: {
        const double sigma = service.sigma;
        return [mean, sigma](Rng& r) { return r.logNormalMean(mean, sigma); };
    }
    case ServiceModel::Kind::Fixed:
        return [mean](Rng&) { return mean; };
    case ServiceModel::Kind::BoundedPareto: {
        // Inverse CDF x = L * (1 - u * (1 - (H/L)^-alpha))^(-1/alpha),
        // one uniform draw per request.
        const double alpha = service.pareto_alpha;
        const double lower = stats::boundedParetoLowerForMean(
            mean, alpha, service.pareto_tail_ratio);
        const double ratio_term =
            1.0 - std::pow(service.pareto_tail_ratio, -alpha);
        const double neg_inv_alpha = -1.0 / alpha;
        return [lower, ratio_term, neg_inv_alpha](Rng& r) {
            return lower *
                   std::pow(1.0 - r.uniform() * ratio_term, neg_inv_alpha);
        };
    }
    }
    CLITE_THROW("unknown service kind");
}

} // namespace

TailMeasurement
measureStationReference(int servers, double arrival_rate,
                        const ServiceModel& service, double warmup,
                        double window, Rng& rng, uint64_t event_budget)
{
    CLITE_CHECK(service.mean_service > 0.0,
                "mean service time must be > 0");
    CLITE_CHECK(window > 0.0, "measurement window must be > 0");

    const double span = effectiveWindow(window, arrival_rate, event_budget);
    Simulator simulator;
    QueueingStation station(simulator, servers, arrival_rate,
                            samplerFor(service), rng);
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
