#include "sim/queueing.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.h"

namespace clite {
namespace sim {

namespace {

/** Windows with at least this many responses select their percentiles
    from the top tail only (see summarizeWindow). */
constexpr size_t kTailSelectMin = 4096;

/** Stride of the pivot sample the tail selection draws its cut from. */
constexpr size_t kPivotStride = 32;

/**
 * The order statistic sorted(v)[k], by selection instead of a full
 * sort. @p frontier is the number of leading positions already fixed
 * at their sorted values by earlier calls; ranks must be requested in
 * non-decreasing order so each nth_element runs on the tail partition
 * the previous one left behind (any rank below the frontier was itself
 * requested before, so v[k] already holds the exact order statistic).
 */
double
orderStat(std::span<double> v, size_t k, size_t& frontier)
{
    if (k >= frontier) {
        std::nth_element(v.begin() + ptrdiff_t(frontier),
                         v.begin() + ptrdiff_t(k), v.end());
        frontier = k + 1;
    }
    return v[k];
}

/**
 * stats::percentileSorted(sorted(rt), q) for a window of @p n
 * responses, without sorting them: @p tail holds the top tail.size()
 * of them (all n, or the ones at ranks >= n - tail.size()), the order
 * statistics the interpolation reads are selected exactly from it
 * (nth_element places the same element a sort would), and the
 * arithmetic is the same expression, so the value is bit-identical.
 * Quantiles must be requested in ascending order (see orderStat).
 */
double
selectPercentile(std::span<double> tail, size_t n, double q, size_t& frontier)
{
    const size_t offset = n - tail.size();
    double pos = q * double(n - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, n - 1);
    double frac = pos - double(lo);
    double vlo = orderStat(tail, lo - offset, frontier);
    double vhi = orderStat(tail, hi - offset, frontier);
    return vlo * (1.0 - frac) + vhi * frac;
}

/**
 * Copy into @p buf (room for rt.size() values) the responses at or
 * above a cut near the 90th percentile, taken from a strided sample
 * (every kPivotStride-th response); returns how many were kept. The
 * kept ones are exactly the top m of the window as a multiset, because
 * every response below the cut sorts before every response at or
 * above it.
 */
size_t
keepTopTail(const std::vector<double>& rt, double* buf)
{
    size_t samples = 0;
    for (size_t i = 0; i < rt.size(); i += kPivotStride)
        buf[samples++] = rt[i];
    double* cut = buf + samples * 9 / 10;
    std::nth_element(buf, cut, buf + samples);
    const double pivot = *cut;
    size_t kept = 0;
    for (double x : rt) {
        buf[kept] = x;
        kept += size_t(x >= pivot);
    }
    return kept;
}

/**
 * Per-thread buffers of the station loop, reused across calls: a
 * QueueingSimModel window in steady state touches only this warm
 * storage.
 */
struct StationScratch
{
    std::vector<double> free_at;  ///< per server: when it next falls idle
    std::vector<double> response; ///< measured responses, arrival order
    std::vector<double> sort_buf;
};

thread_local StationScratch t_scratch;

/**
 * The M/M/c station as an FCFS recursion (Kiefer & Wolfowitz, 1955).
 * Under FCFS on identical servers the k-th arrival is the k-th request
 * to start service, and it takes the server that falls idle first, so
 * the c times at which the servers next fall idle are the whole queue
 * state: request k starts at max(arrival, earliest free time) and holds
 * that server until start + service. Each request draws its
 * interarrival gap and then its service time, in arrival order; the
 * first gap past the end of the window is drawn and ends the loop.
 * Responses are recorded in arrival order when the departure falls in
 * (warmup, warmup + span]. Every draw comes from one RngLookahead,
 * which moves @p rng to exactly the consumed position before the window
 * is summarized. Both draws divide a unit exponential by their rate, as
 * Rng::exponential does; the caller has validated both rates, so no
 * draw re-checks one.
 */
TailMeasurement
runStationLoop(int servers, double arrival_rate, double service_rate,
               double warmup, double span, Rng& rng)
{
    StationScratch& scratch = t_scratch;
    scratch.free_at.assign(size_t(servers), 0.0);
    double* free_at = scratch.free_at.data();
    RngLookahead draws(rng);
    const double end = warmup + span;
    double arrival = 0.0;
    for (;;) {
        arrival += draws.unitExponential() / arrival_rate;
        if (arrival > end)
            break;
        const double service = draws.unitExponential() / service_rate;
        CLITE_ASSERT(service >= 0.0, "negative service time sampled");
        int first = 0;
        for (int i = 1; i < servers; ++i)
            if (free_at[i] < free_at[first])
                first = i;
        const double departure = std::max(arrival, free_at[first]) + service;
        free_at[first] = departure;
        // Warm-up responses are discarded at t == warmup, so only
        // strictly later departures are measured.
        if (departure > warmup && departure <= end)
            scratch.response.push_back(departure - arrival);
    }
    draws.commit();
    return summarizeWindow(scratch.response, span);
}

} // namespace

/**
 * Percentiles through rank selection on one scratch buffer,
 * bit-identical to separate stats::percentile calls. Both percentiles
 * read ranks >= floor(0.95 (n - 1)), so a large window selects them
 * from its top tail only (keepTopTail), at ranks shifted down by the
 * n - m responses left out; if the cut lands above that rank, the
 * window falls back to selecting over every response.
 */
TailMeasurement
summarizeWindow(const std::vector<double>& rt, double window)
{
    TailMeasurement out;
    out.completed = rt.size();
    out.throughput = double(rt.size()) / window;
    if (rt.empty())
        return out;
    // Four-way unrolled summation for the mean, in the order given (the
    // station passes arrival order): the field is diagnostic (nothing
    // downstream consumes it bit-for-bit), and independent accumulators
    // break the serial dependency chain a streaming update would force
    // through every sample.
    const size_t n = rt.size();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += rt[i];
        s1 += rt[i + 1];
        s2 += rt[i + 2];
        s3 += rt[i + 3];
    }
    for (; i < n; ++i)
        s0 += rt[i];
    out.mean = ((s0 + s1) + (s2 + s3)) / double(n);

    // Sized up, never down: a steady-state window neither allocates nor
    // zero-fills.
    std::vector<double>& sort_buf = t_scratch.sort_buf;
    if (sort_buf.size() < n)
        sort_buf.resize(n);
    std::span<double> tail;
    if (n >= kTailSelectMin) {
        const size_t kept = keepTopTail(rt, sort_buf.data());
        if (n - kept <= size_t(0.95 * double(n - 1)))
            tail = std::span<double>(sort_buf.data(), kept);
    }
    if (tail.empty()) {
        std::copy(rt.begin(), rt.end(), sort_buf.begin());
        tail = std::span<double>(sort_buf.data(), n);
    }
    size_t frontier = 0;
    out.p95 = selectPercentile(tail, n, 0.95, frontier);
    out.p99 = selectPercentile(tail, n, 0.99, frontier);
    return out;
}

double
effectiveWindow(double window, double arrival_rate, uint64_t event_budget)
{
    if (event_budget == 0 || arrival_rate <= 0.0)
        return window;
    uint64_t budget = std::max(event_budget, kMinEventBudget);
    return std::min(window, double(budget) / arrival_rate);
}

TailMeasurement
measureStation(int servers, double arrival_rate, double mean_service,
               double warmup, double window, Rng& rng, uint64_t event_budget)
{
    CLITE_CHECK(servers >= 1, "station needs >= 1 server, got " << servers);
    CLITE_CHECK(arrival_rate >= 0.0, "arrival rate must be >= 0");
    CLITE_CHECK(mean_service > 0.0, "mean service time must be > 0");
    CLITE_CHECK(window > 0.0, "measurement window must be > 0");

    const double span = effectiveWindow(window, arrival_rate, event_budget);
    std::vector<double>& response = t_scratch.response;
    response.clear();

    if (arrival_rate <= 0.0)
        return summarizeWindow(response, span);

    // The rate checks of Rng::exponential, once per window instead of
    // once per draw.
    CLITE_CHECK(arrival_rate > 0.0,
                "arrival rate must be positive, got " << arrival_rate);
    const double service_rate = 1.0 / mean_service;
    CLITE_CHECK(service_rate > 0.0,
                "exponential service rate must be positive, got "
                    << service_rate);
    return runStationLoop(servers, arrival_rate, service_rate, warmup, span,
                          rng);
}

void
prewarmMeasurementScratch(int max_servers, size_t expected_requests)
{
    StationScratch& scratch = t_scratch;
    if (max_servers > 0 && scratch.free_at.capacity() < size_t(max_servers))
        scratch.free_at.reserve(size_t(max_servers));
    if (expected_requests > 0) {
        if (scratch.response.capacity() < expected_requests)
            scratch.response.reserve(expected_requests);
        if (scratch.sort_buf.capacity() < expected_requests)
            scratch.sort_buf.reserve(expected_requests);
    }
}

} // namespace sim
} // namespace clite
