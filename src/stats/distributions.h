/**
 * @file
 * Scalar distribution functions used by the BO acquisition math and the
 * queueing models: standard normal PDF/CDF/quantile, Erlang-C, and the
 * tail quantiles of M/M/c response times.
 */

#ifndef CLITE_STATS_DISTRIBUTIONS_H
#define CLITE_STATS_DISTRIBUTIONS_H

namespace clite {
namespace stats {

/** Standard normal probability density φ(z). */
double normalPdf(double z);

/**
 * Standard normal cumulative distribution Φ(z), computed via erfc for
 * full double accuracy across the tails.
 */
double normalCdf(double z);

/**
 * Standard normal quantile Φ⁻¹(p) (Acklam's rational approximation with
 * one Halley refinement step; |relative error| < 1e-9).
 *
 * @param p Probability in (0, 1).
 * @throws clite::Error if p is outside (0, 1).
 */
double normalQuantile(double p);

/**
 * Erlang-C: probability an arriving customer must queue in an M/M/c
 * system.
 *
 * @param servers Number of servers c (>= 1).
 * @param offered_load a = λ/μ (Erlangs); must satisfy a < c for a
 *     stable queue — callers handle saturation before calling.
 * @return P(wait > 0) in [0, 1].
 */
double erlangC(int servers, double offered_load);

/**
 * The q-quantile of the response (sojourn) time of an M/M/c queue.
 *
 * Uses the standard decomposition: with probability Pq (Erlang-C) the
 * customer waits an Exp(cμ − λ) time, then a service time Exp(μ); the
 * quantile of the mixture is computed numerically (bisection on the
 * closed-form CDF).
 *
 * @param servers Number of servers c.
 * @param arrival_rate λ (> 0).
 * @param service_rate μ per server (> 0).
 * @param q Quantile in (0, 1), e.g. 0.95 for the paper's p95.
 * @return Response-time quantile, or +infinity when λ >= cμ (unstable).
 */
double mmcResponseQuantile(int servers, double arrival_rate,
                           double service_rate, double q);

/** Mean response time of an M/M/c queue (+infinity when unstable). */
double mmcMeanResponse(int servers, double arrival_rate,
                       double service_rate);

} // namespace stats
} // namespace clite

#endif // CLITE_STATS_DISTRIBUTIONS_H
