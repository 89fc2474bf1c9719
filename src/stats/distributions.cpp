#include "stats/distributions.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace clite {
namespace stats {

namespace {

constexpr double kSqrt2Pi = 2.5066282746310002;

/**
 * CDF of the M/M/c sojourn time T = W + S where W is 0 with probability
 * (1 - pq) and Exp(a) with probability pq, and S ~ Exp(mu).
 */
double
mmcSojournCdf(double t, double pq, double a, double mu)
{
    if (t <= 0.0)
        return 0.0;
    double no_wait = (1.0 - pq) * (1.0 - std::exp(-mu * t));
    double waited;
    if (std::fabs(a - mu) < 1e-12 * (a + mu)) {
        // Erlang-2 with rate mu.
        waited = pq * (1.0 - std::exp(-mu * t) * (1.0 + mu * t));
    } else {
        waited = pq * (1.0 - (a * std::exp(-mu * t) - mu * std::exp(-a * t))
                                 / (a - mu));
    }
    return no_wait + waited;
}

} // namespace

double
normalPdf(double z)
{
    return std::exp(-0.5 * z * z) / kSqrt2Pi;
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    CLITE_CHECK(p > 0.0 && p < 1.0,
                "normalQuantile requires p in (0,1), got " << p);

    // Acklam's rational approximation.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00, 2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};

    const double plow = 0.02425;
    double x;
    if (p < plow) {
        double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - plow) {
        double q = p - 0.5;
        double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Halley refinement step against the exact CDF.
    double e = normalCdf(x) - p;
    double u = e * kSqrt2Pi * std::exp(0.5 * x * x);
    x = x - u / (1.0 + 0.5 * x * u);
    return x;
}

double
erlangC(int servers, double offered_load)
{
    CLITE_CHECK(servers >= 1, "erlangC needs servers >= 1, got " << servers);
    CLITE_CHECK(offered_load >= 0.0,
                "erlangC offered load must be >= 0, got " << offered_load);
    if (offered_load == 0.0)
        return 0.0;
    if (offered_load >= servers)
        return 1.0;

    // Iterative Erlang-B, then convert to Erlang-C; numerically stable
    // for large server counts.
    double inv_b = 1.0;
    for (int k = 1; k <= servers; ++k)
        inv_b = 1.0 + inv_b * double(k) / offered_load;
    double erlang_b = 1.0 / inv_b;
    double rho = offered_load / servers;
    return erlang_b / (1.0 - rho + rho * erlang_b);
}

double
mmcResponseQuantile(int servers, double arrival_rate, double service_rate,
                    double q)
{
    CLITE_CHECK(arrival_rate >= 0.0, "arrival rate must be >= 0");
    CLITE_CHECK(service_rate > 0.0, "service rate must be > 0");
    CLITE_CHECK(q > 0.0 && q < 1.0, "quantile must be in (0,1), got " << q);

    const double c = double(servers);
    if (arrival_rate >= c * service_rate - 1e-12 * service_rate)
        return std::numeric_limits<double>::infinity();

    double a_load = arrival_rate / service_rate;
    double pq = erlangC(servers, a_load);
    double drain = c * service_rate - arrival_rate; // wait rate parameter

    // Bracket the quantile: service-only lower bound; expand upper bound.
    double lo = 0.0;
    double hi = 10.0 / service_rate + 10.0 / drain;
    while (mmcSojournCdf(hi, pq, drain, service_rate) < q)
        hi *= 2.0;
    for (int it = 0; it < 200; ++it) {
        double mid = 0.5 * (lo + hi);
        if (mmcSojournCdf(mid, pq, drain, service_rate) < q)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12 * hi)
            break;
    }
    return 0.5 * (lo + hi);
}

double
mmcMeanResponse(int servers, double arrival_rate, double service_rate)
{
    CLITE_CHECK(service_rate > 0.0, "service rate must be > 0");
    const double c = double(servers);
    if (arrival_rate >= c * service_rate)
        return std::numeric_limits<double>::infinity();
    double pq = erlangC(servers, arrival_rate / service_rate);
    double wq = pq / (c * service_rate - arrival_rate);
    return wq + 1.0 / service_rate;
}

} // namespace stats
} // namespace clite
