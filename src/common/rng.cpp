#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace clite {

uint64_t
SplitMix64::next()
{
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto& s : state_)
        s = sm.next();
}

Rng
Rng::split(uint64_t tag)
{
    // Mix the tag with fresh output so children with different tags (or
    // from different parent states) are decorrelated.
    uint64_t seed = next() ^ (tag * 0xD1B54A32D192ED03ull + 1);
    return Rng(seed);
}

RngLookahead::RngLookahead(Rng& parent)
    : parent_(parent), ahead_(parent), block_start_(parent.state_)
{
}

void
RngLookahead::refill()
{
    block_start_ = ahead_.state_;
    // The raw draws first, then the logs: the kBlock log calls are
    // independent of each other, so they pipeline.
    for (double& e : e_)
        e = ahead_.uniform();
    for (double& e : e_)
        e = detail::unitExponential(e);
    pos_ = 0;
}

void
RngLookahead::commit()
{
    if (pos_ == kBlock) {
        parent_.state_ = ahead_.state_;
    } else {
        parent_.state_ = block_start_;
        for (size_t i = 0; i < pos_; ++i)
            parent_.next();
    }
}

double
Rng::uniform(double lo, double hi)
{
    CLITE_CHECK(lo <= hi, "uniform bounds inverted: [" << lo << ", " << hi
                                                       << ")");
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    CLITE_CHECK(lo <= hi,
                "uniformInt bounds inverted: [" << lo << ", " << hi << "]");
    uint64_t span = uint64_t(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return int64_t(next());
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = (~uint64_t{0} / span) * span;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + int64_t(v % span);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

size_t
Rng::categorical(const std::vector<double>& weights)
{
    double total = 0.0;
    for (double w : weights) {
        CLITE_CHECK(w >= 0.0, "categorical weight must be >= 0, got " << w);
        total += w;
    }
    CLITE_CHECK(total > 0.0, "categorical weights sum to zero");
    double r = uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1; // numerical edge: land on last bucket
}

} // namespace clite
