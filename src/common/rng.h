/**
 * @file
 * Deterministic pseudo-random number generation for the CLITE library.
 *
 * All stochastic components (measurement noise, discrete-event service
 * times, RAND+/GENETIC search, BO multi-start) draw from clite::Rng so
 * that every experiment is reproducible from a single 64-bit seed. The
 * generator is xoshiro256**, seeded through SplitMix64, both public
 * domain algorithms by Blackman & Vigna.
 *
 * Exponential draws invert one uniform, -log(1 - u), through the
 * library's own log kernel (fdlibm's, common/fdlibm_log.h) rather than
 * libm's: its scalar form and its 4-lane block forms, baseline x86-64
 * and AVX2, return the same bits on every host, within 1 ulp of the
 * true value. glibc's log is not host-independent: its FMA and non-FMA
 * variants differ in about 1 of 10^4 of these draws.
 */

#ifndef CLITE_COMMON_RNG_H
#define CLITE_COMMON_RNG_H

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"

namespace clite {

/**
 * SplitMix64 generator. Used to expand a single seed into the xoshiro
 * state and to derive independent child seeds for parallel streams.
 */
class SplitMix64
{
  public:
    /** @param seed Initial state; any value (including 0) is valid. */
    explicit SplitMix64(uint64_t seed) : state_(seed) {}

    /** Next 64-bit value. */
    uint64_t next();

  private:
    uint64_t state_;
};

/**
 * xoshiro256** random number generator with a std::uniform-like sampling
 * interface covering every distribution the library needs.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Smallest value returned by operator(). */
    static constexpr result_type min() { return 0; }
    /** Largest value returned by operator(). */
    static constexpr result_type max() { return ~uint64_t{0}; }

    /** Raw 64-bit draw (UniformRandomBitGenerator interface). */
    result_type operator()() { return next(); }

    /** Raw 64-bit draw. */
    uint64_t next();

    /**
     * Derive an independent child generator. Streams derived with
     * different tags from the same parent are decorrelated.
     *
     * @param tag Distinguishes sibling streams.
     */
    Rng split(uint64_t tag);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). @pre lo <= hi */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal draw (Box-Muller with caching). */
    double normal();

    /** Normal draw with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Log-normal draw parameterized by the mean of the *resulting*
     * distribution and the sigma of the underlying normal; convenient
     * for multiplicative measurement noise with unit mean.
     *
     * @param mean Desired mean of the log-normal variate.
     * @param sigma Shape parameter (stddev of log).
     */
    double logNormalMean(double mean, double sigma);

    /** Exponential draw with the given rate (1/mean). @pre rate > 0 */
    double exponential(double rate);

    /** Bernoulli draw. @param p Probability of true, clamped to [0,1]. */
    bool bernoulli(double p);

    /**
     * Sample an index in [0, weights.size()) proportionally to
     * non-negative weights. @pre at least one weight > 0.
     */
    size_t categorical(const std::vector<double>& weights);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(uniformInt(0, int64_t(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    friend class RngLookahead;

    /** Left-rotate for xoshiro. */
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> state_;
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

/**
 * Block lookahead over an Rng stream for a hot loop whose draws sit on
 * a serial dependency chain (the DES station loop). It draws the next
 * kBlock uniforms of a copy of the stream, then turns them into unit
 * exponentials -log(1 - u) four lanes at a time with the log kernel's
 * block form (AVX2 where the host has it), off the loop's chain.
 * unitExponential() / rate has exactly the bits the parent's own
 * Rng::exponential(rate) calls would return in the same order (pinned
 * by tests/common/rng_test.cpp): one raw draw per exponential, in
 * stream order.
 *
 * commit() moves the parent to exactly the position the draws so far
 * consumed; draws computed past that position are discarded, and the
 * parent's Box-Muller cache is left as it was. commit() may be called
 * again after more draws; the parent must not be drawn from until the
 * last one.
 */
class RngLookahead
{
  public:
    /** Draws computed per block. */
    static constexpr size_t kBlock = 128;

    /** Look ahead of @p parent, starting at its current position. */
    explicit RngLookahead(Rng& parent);

    /** -log(1 - uniform()), which Rng::exponential(rate) divides by rate. */
    double
    unitExponential()
    {
        if (pos_ == kBlock) [[unlikely]]
            refill();
        return e_[pos_++];
    }

    /** Leave the parent where the draws so far leave it. */
    void commit();

  private:
    /** Compute the next block from ahead_. */
    void refill();

    Rng& parent_;
    Rng ahead_;                          ///< stream just past the block
    std::array<uint64_t, 4> block_start_; ///< stream at the block's start
    size_t pos_ = kBlock;                ///< draws consumed in the block
    std::array<double, kBlock> e_{};
};

namespace detail {

/**
 * Unit exponential by inversion, -log(1 - u) for u in [0, 1), with the
 * library's log kernel: within 1 ulp of the true value, and -0.0 at
 * u = 0. Rng::exponential's scalar form.
 */
double unitExponential(double u);

/**
 * The block forms, exposed for the equivalence test: e[i] becomes
 * unitExponential(e[i]) for i < n, four lanes at a time, bit for bit.
 * @pre n is a multiple of 4.
 */
void unitExponentialsBase(double* e, size_t n);

/** AVX2 block form (valid to call only when clite::avx2Supported()). */
void unitExponentialsAvx2(double* e, size_t n);

} // namespace detail

// The sampling hot path — raw draws and the distributions the
// discrete-event simulator draws per request — is defined inline so
// callers in other translation units pay no call or spill overhead.
// The unit exponential has one kernel (detail:: above, common/rng.cpp),
// shared with RngLookahead.

inline uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

inline double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return double(next() >> 11) * 0x1.0p-53;
}

inline double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box-Muller; 1 - u1 is in (0,1] so the log is finite. The radius
    // keeps libm's log rather than the unit-exponential kernel: normal
    // draws are measurement noise, off the DES's per-request path, and
    // keeping their bits keeps every analytic result.
    const double r = std::sqrt(2.0 * -std::log(1.0 - uniform()));
    const double theta = 2.0 * M_PI * uniform();
    // One sincos() call instead of separate sin/cos: glibc evaluates
    // both through the same argument reduction and polynomial kernels,
    // so the pair is bit-identical to std::sin(theta)/std::cos(theta)
    // (pinned over the Box-Muller domain by tests/common/rng_test.cpp)
    // while sharing the reduction work between the two draws.
    double s, c;
    ::sincos(theta, &s, &c);
    cached_normal_ = r * s;
    has_cached_normal_ = true;
    return r * c;
}

inline double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

inline double
Rng::logNormalMean(double mean, double sigma)
{
    CLITE_CHECK(mean > 0.0, "log-normal mean must be positive, got " << mean);
    // E[exp(N(mu, sigma^2))] = exp(mu + sigma^2/2) == mean.
    double mu = std::log(mean) - 0.5 * sigma * sigma;
    return std::exp(normal(mu, sigma));
}

inline double
Rng::exponential(double rate)
{
    CLITE_CHECK(rate > 0.0, "exponential rate must be positive, got "
                                << rate);
    return detail::unitExponential(uniform()) / rate;
}

} // namespace clite

#endif // CLITE_COMMON_RNG_H
