#include "workloads/traffic/traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"

namespace clite {
namespace workloads {
namespace traffic {

double
hashUniform(uint64_t seed, uint64_t counter)
{
    // SplitMix64 over the (seed, counter) pair; two steps decorrelate
    // neighbouring counters. 53 high bits -> [0, 1), like Rng::uniform.
    SplitMix64 h(seed ^ (counter * 0x9E3779B97F4A7C15ull));
    h.next();
    return double(h.next() >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------
// SurgeProcess

SurgeProcess::SurgeProcess(uint64_t seed) : SurgeProcess(seed, Options())
{
}

SurgeProcess::SurgeProcess(uint64_t seed, Options options)
    : options_(options)
{
    CLITE_CHECK(options_.horizon_seconds > 0.0,
                "surge horizon must be > 0, got "
                    << options_.horizon_seconds);
    CLITE_CHECK(options_.mean_interarrival_s > 0.0,
                "surge mean inter-arrival must be > 0, got "
                    << options_.mean_interarrival_s);
    CLITE_CHECK(options_.decay_seconds > 0.0,
                "surge decay must be > 0, got " << options_.decay_seconds);
    CLITE_CHECK(options_.mean_magnitude > 0.0,
                "surge mean magnitude must be > 0, got "
                    << options_.mean_magnitude);

    // Materialize the full Poisson timeline up front: loadAt stays a
    // pure function of t afterwards (no sequential RNG state), which
    // is what makes shared surge processes safe to read from any
    // thread in any order.
    Rng rng(seed);
    double t = rng.exponential(1.0 / options_.mean_interarrival_s);
    while (t < options_.horizon_seconds) {
        onset_s_.push_back(t);
        magnitude_.push_back(
            rng.exponential(1.0 / options_.mean_magnitude));
        t += rng.exponential(1.0 / options_.mean_interarrival_s);
    }
}

double
SurgeProcess::surgeAt(double t_seconds) const
{
    double total = 0.0;
    for (size_t i = 0;
         i < onset_s_.size() && onset_s_[i] <= t_seconds; ++i) {
        double age = t_seconds - onset_s_[i];
        // A surge older than ~37 decay constants contributes < 1e-16
        // of its peak; skipping it keeps long replays O(active surges).
        if (age > 37.0 * options_.decay_seconds)
            continue;
        total += magnitude_[i] * std::exp(-age / options_.decay_seconds);
    }
    return total;
}

// ---------------------------------------------------------------------
// JitteredDiurnalTrace

JitteredDiurnalTrace::JitteredDiurnalTrace(uint64_t seed)
    : JitteredDiurnalTrace(seed, Options())
{
}

JitteredDiurnalTrace::JitteredDiurnalTrace(uint64_t seed, Options options)
    : seed_(seed), options_(options)
{
    CLITE_CHECK(options_.period_seconds > 0.0,
                "diurnal period must be > 0, got "
                    << options_.period_seconds);
    CLITE_CHECK(options_.base > 0.0 && options_.base <= 1.0,
                "base load must be in (0,1], got " << options_.base);
    CLITE_CHECK(options_.amplitude >= 0.0,
                "amplitude must be >= 0, got " << options_.amplitude);
    CLITE_CHECK(options_.jitter >= 0.0,
                "jitter must be >= 0, got " << options_.jitter);
    CLITE_CHECK(options_.jitter_interval_s > 0.0,
                "jitter interval must be > 0, got "
                    << options_.jitter_interval_s);
}

double
JitteredDiurnalTrace::loadAt(double t_seconds) const
{
    double t = std::max(0.0, t_seconds);
    double v = options_.base +
               options_.amplitude *
                   std::sin(2.0 * M_PI * t / options_.period_seconds +
                            options_.phase_radians);
    if (options_.jitter > 0.0) {
        // Piecewise-linear ribbon between hash-keyed knots: knot k is
        // a pure function of (seed, k), so the value at any t is
        // independent of what was evaluated before it.
        double pos = t / options_.jitter_interval_s;
        uint64_t k = uint64_t(pos);
        double frac = pos - double(k);
        double j0 = (2.0 * hashUniform(seed_, k) - 1.0) * options_.jitter;
        double j1 =
            (2.0 * hashUniform(seed_, k + 1) - 1.0) * options_.jitter;
        v += j0 + (j1 - j0) * frac;
    }
    return clampLoadFraction(v);
}

// ---------------------------------------------------------------------
// FlashCrowdTrace

FlashCrowdTrace::FlashCrowdTrace(uint64_t seed, double base)
    : FlashCrowdTrace(seed, base, SurgeProcess::Options())
{
}

FlashCrowdTrace::FlashCrowdTrace(uint64_t seed, double base,
                                 SurgeProcess::Options surge)
    : base_(base), surge_(seed, surge)
{
    CLITE_CHECK(base_ > 0.0 && base_ <= 1.0,
                "flash-crowd base load must be in (0,1], got " << base_);
}

double
FlashCrowdTrace::loadAt(double t_seconds) const
{
    double t = std::max(0.0, t_seconds);
    return clampLoadFraction(base_ + surge_.surgeAt(t));
}

// ---------------------------------------------------------------------
// CorrelatedTrace

CorrelatedTrace::CorrelatedTrace(std::shared_ptr<const LoadTrace> base,
                                 std::shared_ptr<const SurgeProcess> surge,
                                 double gain)
    : base_(std::move(base)), surge_(std::move(surge)), gain_(gain)
{
    CLITE_CHECK(base_ != nullptr, "correlated trace needs a base trace");
    CLITE_CHECK(surge_ != nullptr,
                "correlated trace needs a surge process");
    CLITE_CHECK(gain_ >= 0.0, "surge gain must be >= 0, got " << gain_);
}

double
CorrelatedTrace::loadAt(double t_seconds) const
{
    double t = std::max(0.0, t_seconds);
    return clampLoadFraction(base_->loadAt(t) +
                             gain_ * surge_->surgeAt(t));
}

// ---------------------------------------------------------------------
// CompositeTrace

CompositeTrace::CompositeTrace(std::vector<Component> components)
    : components_(std::move(components))
{
    CLITE_CHECK(!components_.empty(),
                "composite trace needs at least one component");
    for (size_t i = 0; i < components_.size(); ++i) {
        CLITE_CHECK(components_[i].trace != nullptr,
                    "composite component " << i << " is null");
        CLITE_CHECK(components_[i].weight >= 0.0,
                    "composite component " << i
                        << " weight must be >= 0, got "
                        << components_[i].weight);
    }
}

double
CompositeTrace::loadAt(double t_seconds) const
{
    double v = 0.0;
    for (const auto& c : components_)
        v += c.weight * c.trace->loadAt(t_seconds);
    return clampLoadFraction(v);
}

// ---------------------------------------------------------------------
// CsvReplayTrace

CsvReplayTrace::CsvReplayTrace(std::vector<Sample> samples)
    : samples_(std::move(samples))
{
    CLITE_CHECK(!samples_.empty(),
                "CSV replay trace needs at least one sample");
    for (size_t i = 0; i < samples_.size(); ++i) {
        CLITE_CHECK(std::isfinite(samples_[i].t_seconds),
                    "CSV sample " << i << " time must be finite, got "
                        << samples_[i].t_seconds);
        CLITE_CHECK(samples_[i].load > 0.0 && samples_[i].load <= 1.0,
                    "CSV sample " << i << " load must be in (0, 1], got "
                        << samples_[i].load);
        if (i > 0) {
            CLITE_CHECK(
                samples_[i].t_seconds > samples_[i - 1].t_seconds,
                "CSV sample times must be strictly increasing: sample "
                    << i << " at " << samples_[i].t_seconds
                    << "s does not follow sample " << (i - 1) << " at "
                    << samples_[i - 1].t_seconds << "s");
            // loadAt divides by the gap, which must not overflow.
            CLITE_CHECK(std::isfinite(samples_[i].t_seconds -
                                      samples_[i - 1].t_seconds),
                        "CSV samples " << (i - 1) << " and " << i
                                       << " are too far apart");
        }
    }
}

CsvReplayTrace
CsvReplayTrace::fromCsvString(const std::string& text)
{
    std::vector<Sample> samples;
    std::istringstream in(text);
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        Sample s;
        char trailing = '\0';
        int fields = std::sscanf(line.c_str(), " %lf , %lf %c",
                                 &s.t_seconds, &s.load, &trailing);
        // sscanf stops at a NUL, so one would hide the rest of the line.
        CLITE_CHECK(fields == 2 && line.find('\0') == std::string::npos,
                    "CSV line " << line_no
                        << " is not \"t_seconds,load\": '" << line
                        << "'");
        samples.push_back(s);
    }
    return CsvReplayTrace(std::move(samples));
}

CsvReplayTrace
CsvReplayTrace::fromCsvFile(const std::string& path)
{
    std::ifstream in(path);
    CLITE_CHECK(in.good(), "cannot open trace CSV '" << path << "'");
    std::ostringstream text;
    text << in.rdbuf();
    return fromCsvString(text.str());
}

std::string
CsvReplayTrace::toCsvString() const
{
    std::string out = "# t_seconds,load\n";
    char buf[80];
    for (const auto& s : samples_) {
        std::snprintf(buf, sizeof(buf), "%.17g,%.17g\n", s.t_seconds,
                      s.load);
        out += buf;
    }
    return out;
}

double
CsvReplayTrace::loadAt(double t_seconds) const
{
    // A NaN time compares false everywhere, so the search below would
    // land past the last sample.
    CLITE_CHECK(!std::isnan(t_seconds), "trace time must not be NaN");
    if (t_seconds <= samples_.front().t_seconds)
        return samples_.front().load;
    if (t_seconds >= samples_.back().t_seconds)
        return samples_.back().load;
    auto it = std::upper_bound(
        samples_.begin(), samples_.end(), t_seconds,
        [](double t, const Sample& s) { return t < s.t_seconds; });
    const Sample& hi = *it;
    const Sample& lo = *std::prev(it);
    double frac = (t_seconds - lo.t_seconds) / (hi.t_seconds - lo.t_seconds);
    // t_seconds < hi.t_seconds, yet the quotient can round up to 1 when
    // the times dwarf their difference, and lo + (hi - lo) need not be
    // hi: it can even reach 0.
    if (frac >= 1.0)
        return hi.load;
    // Interpolation between validated loads stays in (0, 1]; replayed
    // data is returned exactly, like StepTrace.
    return lo.load + (hi.load - lo.load) * frac;
}

// ---------------------------------------------------------------------
// Helpers

double
traceMeanLoad(const LoadTrace& trace, double horizon_seconds,
              double step_seconds)
{
    CLITE_CHECK(horizon_seconds > 0.0,
                "horizon must be > 0, got " << horizon_seconds);
    CLITE_CHECK(step_seconds > 0.0,
                "step must be > 0, got " << step_seconds);
    size_t n = std::max<size_t>(
        1, size_t(std::ceil(horizon_seconds / step_seconds)));
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += trace.loadAt(double(i) * step_seconds);
    return sum / double(n);
}

JobSpec
withTrace(JobSpec spec, const LoadTrace& trace, double horizon_seconds,
          double step_seconds)
{
    spec.trace_kind = trace.name();
    spec.trace_mean_load =
        traceMeanLoad(trace, horizon_seconds, step_seconds);
    spec.load_fraction = spec.trace_mean_load;
    return spec;
}

} // namespace traffic
} // namespace workloads
} // namespace clite
