#include "sim/queueing.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/error.h"
#include "stats/distributions.h"

namespace clite {
namespace sim {

namespace {

/** Windows with at least this many responses select their percentiles
    from the top tail only (see summarizeWindow). */
constexpr size_t kTailSelectMin = 512;

/** Pivots the tail selection's strided sample aims for, and the widest
    stride it takes them at (from 4096 responses on). */
constexpr size_t kPivotTarget = 128;
constexpr size_t kMaxPivotStride = 32;

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
 * of about kPivotTarget responses (every n/128-th, at most every
 * 32nd); returns how many were kept. The kept ones are exactly the top
 * m of the window as a multiset, because every response below the cut
 * sorts before every response at or above it.
 */
size_t
keepTopTail(const std::vector<double>& rt, double* buf)
{
    const size_t stride = std::clamp(rt.size() / kPivotTarget, size_t(1),
                                     kMaxPivotStride);
    size_t samples = 0;
    for (size_t i = 0; i < rt.size(); i += stride)
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
    std::vector<double> free_at;  ///< servers' next-idle times, ascending
    std::vector<double> response; ///< measured responses, arrival order
    std::vector<double> sort_buf;
};

thread_local StationScratch t_scratch;

/**
 * Walk the counts of Poisson(a) truncated to [0, c) outward from the
 * mode m: m, m + 1, ..., c − 1, then m − 1, ..., 0, each with its weight
 * a^n/n! relative to the mode's, so all lie in [0, 1]; a side stops
 * where its weights underflow to 0. Returns the first count for which
 * @p stop(weight) is true, or m if none is.
 */
template <typename Stop>
int
walkFromMode(int servers, double a, Stop&& stop)
{
    const int mode = int(std::min(std::floor(a), double(servers - 1)));
    if (stop(1.0))
        return mode;
    double w = 1.0;
    for (int n = mode + 1; n < servers && w > 0.0; ++n)
        if (stop(w *= a / double(n)))
            return n;
    w = 1.0;
    for (int n = mode; n > 0 && w > 0.0; --n)
        if (stop(w *= double(n) / a))
            return n - 1;
    return mode;
}

/** Inverse at @p u in [0, 1) of Poisson(a) truncated to [0, c), over
 *  the order walkFromMode() visits. */
int
truncatedPoisson(int servers, double a, double u)
{
    double total = 0.0;
    walkFromMode(servers, a, [&](double w) {
        total += w;
        return false;
    });
    const double target = u * total;
    double acc = 0.0;
    return walkFromMode(servers, a,
                        [&](double w) { return target < (acc += w); });
}

/**
 * Hand the server that falls idle first, free_at[0] of the ascending
 * free times, to a request that departs at @p departure (never
 * earlier), and merge its new free time back in with one branch-free
 * pass: slot j < c − 1 keeps min(free_at[j + 1], max(free_at[j],
 * departure)) and the last slot max(free_at[c − 1], departure), which
 * shifts the times below @p departure down one slot and leaves the
 * ones above it in place. At slot 0 the max is @p departure itself.
 * Returns the new earliest free time for the caller to keep in a
 * register, so the next request's start waits on one min instead of a
 * store and its reload.
 */
double
replaceEarliest(double* free_at, int servers, double departure)
{
    if (servers == 1)
        return free_at[0] = departure;
    const double earliest = std::min(free_at[1], departure);
    free_at[0] = earliest;
    for (int j = 1; j + 1 < servers; ++j)
        free_at[j] = std::min(free_at[j + 1], std::max(free_at[j], departure));
    free_at[servers - 1] = std::max(free_at[servers - 1], departure);
    return earliest;
}

/**
 * The M/M/c station as an FCFS recursion (Kiefer & Wolfowitz, 1955).
 * Under FCFS on identical servers the k-th arrival is the k-th request
 * to start service, and it takes the server that falls idle first, so
 * the c times at which the servers next fall idle are the whole queue
 * state: request k starts at max(arrival, earliest free time) and holds
 * that server until start + service. Which server that is never
 * matters, only its time (tied servers hold the same value), so the
 * state is the sorted multiset of the free times: the earliest is
 * free_at[0], and replaceEarliest() merges the departure back in.
 * Below the knee the servers start with the busy periods of a
 * stationary state and every arrival is measured; at or above it they
 * start idle and a response is measured when its departure falls in
 * (warmup, warmup + span]. Draws follow the order measureStation()
 * documents, from one RngLookahead, which moves @p rng to exactly the
 * consumed position before the window is summarized. Every draw
 * divides a unit exponential by its rate, as Rng::exponential does;
 * the caller has validated both rates, so no draw re-checks one.
 */
TailMeasurement
runStationLoop(int servers, double arrival_rate, double mean_service,
               double warmup, double span, Rng& rng)
{
    StationScratch& scratch = t_scratch;
    scratch.free_at.assign(size_t(servers), 0.0);
    double* free_at = scratch.free_at.data();
    const double service_rate = 1.0 / mean_service;
    RngLookahead draws(rng);

    const double offered_load = arrival_rate * mean_service;
    double end = warmup + span;
    double record_after = warmup, record_until = end;
    if (offered_load / double(servers) < kRhoKnee) {
        const double e_branch = draws.unitExponential();
        const double e_count = draws.unitExponential();
        const StationOccupancy start =
            stationaryOccupancy(servers, offered_load, e_branch, e_count);
        for (int i = 0; i < start.busy; ++i)
            free_at[i] = draws.unitExponential() / service_rate;
        // The idle servers' zeros sort first.
        std::sort(free_at, free_at + servers);
        for (uint64_t k = 0; k < start.waiting; ++k)
            replaceEarliest(free_at, servers,
                            free_at[0] +
                                draws.unitExponential() / service_rate);
        end = span;
        record_after = -std::numeric_limits<double>::infinity();
        record_until = std::numeric_limits<double>::infinity();
    }

    double arrival = 0.0;
    double earliest = free_at[0];
    for (;;) {
        arrival += draws.unitExponential() / arrival_rate;
        if (arrival > end)
            break;
        const double service = draws.unitExponential() / service_rate;
        CLITE_ASSERT(service >= 0.0, "negative service time sampled");
        const double departure = std::max(arrival, earliest) + service;
        earliest = replaceEarliest(free_at, servers, departure);
        // At or above the knee, warm-up responses are discarded at
        // t == warmup, so only strictly later departures are measured;
        // below it both bounds are infinite.
        if (departure > record_after && departure <= record_until)
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
    CLITE_CHECK(std::isfinite(arrival_rate) && arrival_rate >= 0.0,
                "arrival rate must be finite and >= 0, got " << arrival_rate);
    CLITE_CHECK(mean_service > 0.0, "mean service time must be > 0");
    // An infinite rate or time never ends the loop that simulates it.
    CLITE_CHECK(std::isfinite(warmup) && warmup >= 0.0,
                "warm-up must be finite and >= 0, got " << warmup);
    CLITE_CHECK(std::isfinite(window) && window > 0.0,
                "measurement window must be finite and > 0, got " << window);

    const double span = effectiveWindow(window, arrival_rate, event_budget);
    std::vector<double>& response = t_scratch.response;
    response.clear();

    if (arrival_rate <= 0.0)
        return summarizeWindow(response, span);

    // The rate checks of Rng::exponential, once per window instead of
    // once per draw.
    CLITE_CHECK(arrival_rate > 0.0,
                "arrival rate must be positive, got " << arrival_rate);
    CLITE_CHECK(1.0 / mean_service > 0.0,
                "exponential service rate must be positive, got "
                    << 1.0 / mean_service);
    return runStationLoop(servers, arrival_rate, mean_service, warmup, span,
                          rng);
}

StationOccupancy
stationaryOccupancy(int servers, double offered_load, double e_branch,
                    double e_count)
{
    const double rho = offered_load / double(servers);
    CLITE_CHECK(servers >= 1 && rho >= 0.0 && rho < kRhoKnee,
                "no stationary occupancy at " << servers
                                              << " servers, utilization "
                                              << rho);
    // 1 - exp(-E) of a unit exponential E is uniform on [0, 1).
    if (-std::expm1(-e_branch) < stats::erlangC(servers, offered_load))
        return {servers, uint64_t(e_count / -std::log(rho))};
    return {truncatedPoisson(servers, offered_load, -std::expm1(-e_count)),
            0};
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
