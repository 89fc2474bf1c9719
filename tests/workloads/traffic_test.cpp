/**
 * @file
 * Property tests for the traffic subsystem (workloads/traffic): every
 * generator must be seed-reproducible, evaluation-order independent,
 * and bounded in (0, 1]; CSV replay must round-trip bit-exactly and
 * either reject or replay validly every fuzzed input; the trace/profile
 * helpers must stamp the identities the signature layer hashes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "workloads/traffic/traffic.h"

namespace clite {
namespace workloads {
namespace traffic {
namespace {

/** Sample @p trace on a fixed grid. */
std::vector<double>
sample(const LoadTrace& trace, double horizon = 240.0, double step = 0.7)
{
    std::vector<double> out;
    for (double t = 0.0; t < horizon; t += step)
        out.push_back(trace.loadAt(t));
    return out;
}

/**
 * Text-parser fuzz inputs from one valid input: every truncation, then
 * every substitution of one byte from the bytes numbers, separators and
 * comments are made of ('n' and 'i' start "nan" and "inf", and NUL
 * ends a C string early).
 */
std::vector<std::string>
textMutations(const std::string& valid)
{
    const std::string alphabet =
        std::string("0123456789.,-+e@%# \nni") + '\0';
    std::vector<std::string> out;
    for (size_t len = 0; len < valid.size(); ++len)
        out.push_back(valid.substr(0, len));
    for (size_t i = 0; i < valid.size(); ++i)
        for (char c : alphabet)
            if (c != valid[i]) {
                out.push_back(valid);
                out.back()[i] = c;
            }
    return out;
}

void
expectInBounds(const std::vector<double>& loads)
{
    for (double v : loads) {
        EXPECT_GT(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(HashUniform, DeterministicAndBounded)
{
    for (uint64_t c = 0; c < 1000; ++c) {
        double v = hashUniform(7, c);
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        EXPECT_EQ(v, hashUniform(7, c));
    }
    // Different seeds and counters decorrelate.
    EXPECT_NE(hashUniform(7, 3), hashUniform(8, 3));
    EXPECT_NE(hashUniform(7, 3), hashUniform(7, 4));
}

TEST(SurgeProcess, SameSeedSameTimeline)
{
    SurgeProcess a(11), b(11), c(12);
    EXPECT_EQ(a.onsets(), b.onsets());
    EXPECT_EQ(a.magnitudes(), b.magnitudes());
    EXPECT_NE(a.onsets(), c.onsets());
}

TEST(SurgeProcess, OnsetsAscendWithinHorizon)
{
    SurgeProcess::Options o;
    o.horizon_seconds = 500.0;
    o.mean_interarrival_s = 25.0;
    SurgeProcess p(3, o);
    EXPECT_FALSE(p.onsets().empty());
    EXPECT_TRUE(std::is_sorted(p.onsets().begin(), p.onsets().end()));
    for (double t : p.onsets()) {
        EXPECT_GE(t, 0.0);
        EXPECT_LT(t, o.horizon_seconds);
    }
    for (double m : p.magnitudes())
        EXPECT_GT(m, 0.0);
}

TEST(SurgeProcess, SpikesAtOnsetThenDecays)
{
    SurgeProcess::Options o;
    o.decay_seconds = 5.0;
    SurgeProcess p(21, o);
    ASSERT_FALSE(p.onsets().empty());
    double t0 = p.onsets().front();
    if (t0 > 0.5) {
        EXPECT_DOUBLE_EQ(p.surgeAt(t0 * 0.5), 0.0); // quiet before onset
    }
    EXPECT_GE(p.surgeAt(t0), p.magnitudes().front());
    // Between onsets the surge strictly decays.
    double next = p.onsets().size() > 1 ? p.onsets()[1]
                                        : o.horizon_seconds + 1000.0;
    if (next > t0 + 1.0) {
        EXPECT_LT(p.surgeAt(t0 + 1.0), p.surgeAt(t0));
    }
    EXPECT_GE(p.surgeAt(t0 + 1000.0), 0.0);
}

TEST(SurgeProcess, Validation)
{
    SurgeProcess::Options o;
    o.horizon_seconds = 0.0;
    EXPECT_THROW(SurgeProcess(1, o), Error);
    o = SurgeProcess::Options();
    o.mean_interarrival_s = -1.0;
    EXPECT_THROW(SurgeProcess(1, o), Error);
    o = SurgeProcess::Options();
    o.decay_seconds = 0.0;
    EXPECT_THROW(SurgeProcess(1, o), Error);
    o = SurgeProcess::Options();
    o.mean_magnitude = 0.0;
    EXPECT_THROW(SurgeProcess(1, o), Error);
}

TEST(JitteredDiurnalTrace, DeterministicPerSeedAndOrderIndependent)
{
    JitteredDiurnalTrace a(5), b(5), c(6);
    EXPECT_EQ(sample(a), sample(b));
    EXPECT_NE(sample(a), sample(c));
    // Evaluation order must not matter: reading the trace backwards
    // reproduces the forward values bit for bit (no hidden sequential
    // RNG state). Index the grid so both passes query identical times.
    const int n = 343;
    std::vector<double> fwd, rev;
    for (int i = 0; i < n; ++i)
        fwd.push_back(a.loadAt(double(i) * 0.7));
    for (int i = n - 1; i >= 0; --i)
        rev.push_back(a.loadAt(double(i) * 0.7));
    std::reverse(rev.begin(), rev.end());
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(fwd[size_t(i)], rev[size_t(i)]);
    EXPECT_EQ(a.name(), "jittered-diurnal");
}

TEST(JitteredDiurnalTrace, StaysInBoundsAndTracksTheSine)
{
    JitteredDiurnalTrace::Options o;
    o.base = 0.5;
    o.amplitude = 0.4;
    o.period_seconds = 100.0;
    o.jitter = 0.08;
    JitteredDiurnalTrace trace(9, o);
    std::vector<double> loads = sample(trace, 300.0, 0.5);
    expectInBounds(loads);
    // The jitter ribbon is bounded: every sample within jitter of the
    // clean sine (before clamping effects at the extremes).
    for (double t = 0.0; t < 300.0; t += 0.5) {
        double clean = o.base + o.amplitude *
                                    std::sin(2.0 * M_PI * t /
                                             o.period_seconds);
        double lo = std::max(0.01, std::min(clean - o.jitter, 1.0));
        double hi = std::min(1.0, std::max(clean + o.jitter, 0.01));
        double v = trace.loadAt(t);
        EXPECT_GE(v, lo - 1e-12);
        EXPECT_LE(v, hi + 1e-12);
    }
}

TEST(JitteredDiurnalTrace, Validation)
{
    JitteredDiurnalTrace::Options o;
    o.period_seconds = 0.0;
    EXPECT_THROW(JitteredDiurnalTrace(1, o), Error);
    o = JitteredDiurnalTrace::Options();
    o.base = 0.0;
    EXPECT_THROW(JitteredDiurnalTrace(1, o), Error);
    o = JitteredDiurnalTrace::Options();
    o.jitter = -0.1;
    EXPECT_THROW(JitteredDiurnalTrace(1, o), Error);
    o = JitteredDiurnalTrace::Options();
    o.jitter_interval_s = 0.0;
    EXPECT_THROW(JitteredDiurnalTrace(1, o), Error);
}

TEST(FlashCrowdTrace, BaseBetweenCrowdsSpikesAtOnsets)
{
    FlashCrowdTrace trace(31, 0.2);
    std::vector<double> loads = sample(trace, 600.0, 1.0);
    expectInBounds(loads);
    // Before the first onset the load is exactly the base.
    ASSERT_FALSE(trace.surge().onsets().empty());
    double first = trace.surge().onsets().front();
    if (first > 1.0) {
        EXPECT_DOUBLE_EQ(trace.loadAt(first / 2.0), 0.2);
    }
    // At an onset the load strictly exceeds the base.
    EXPECT_GT(trace.loadAt(first), 0.2);
    EXPECT_EQ(trace.name(), "flash-crowd");
    EXPECT_THROW(FlashCrowdTrace(1, 0.0), Error);
    EXPECT_THROW(FlashCrowdTrace(1, 1.5), Error);
}

TEST(CorrelatedTrace, SubscribersSpikeTogether)
{
    auto surge = std::make_shared<SurgeProcess>(77);
    auto base_a = std::make_shared<DiurnalTrace>(0.3, 0.1, 200.0);
    auto base_b = std::make_shared<DiurnalTrace>(0.5, 0.05, 300.0);
    CorrelatedTrace a(base_a, surge, 1.0);
    CorrelatedTrace b(base_b, surge, 0.5);
    ASSERT_FALSE(surge->onsets().empty());
    double t0 = surge->onsets().front();
    // Both jobs see the same crowd at the same moment, scaled by gain.
    EXPECT_GT(a.loadAt(t0), base_a->loadAt(t0));
    EXPECT_GT(b.loadAt(t0), base_b->loadAt(t0));
    expectInBounds(sample(a));
    expectInBounds(sample(b));
    // Gain 0 decouples from the surge entirely.
    CorrelatedTrace quiet(base_a, surge, 0.0);
    for (double t = 0.0; t < 100.0; t += 3.0)
        EXPECT_DOUBLE_EQ(quiet.loadAt(t),
                         clampLoadFraction(base_a->loadAt(t)));
    EXPECT_THROW(CorrelatedTrace(nullptr, surge), Error);
    EXPECT_THROW(CorrelatedTrace(base_a, nullptr), Error);
    EXPECT_THROW(CorrelatedTrace(base_a, surge, -1.0), Error);
}

TEST(CompositeTrace, WeightedSumClamped)
{
    auto d = std::make_shared<DiurnalTrace>(0.4, 0.1, 100.0);
    auto f = std::make_shared<FlashCrowdTrace>(5, 0.2);
    CompositeTrace mix({{d, 0.5}, {f, 0.5}});
    for (double t = 0.0; t < 200.0; t += 2.5)
        EXPECT_DOUBLE_EQ(mix.loadAt(t),
                         clampLoadFraction(0.5 * d->loadAt(t) +
                                           0.5 * f->loadAt(t)));
    expectInBounds(sample(mix));
    EXPECT_EQ(mix.name(), "composite");
    EXPECT_THROW(CompositeTrace({}), Error);
    EXPECT_THROW(CompositeTrace({{nullptr, 1.0}}), Error);
    EXPECT_THROW(CompositeTrace({{d, -0.5}}), Error);
}

TEST(CsvReplayTrace, InterpolatesAndHoldsEnds)
{
    CsvReplayTrace trace({{0.0, 0.2}, {10.0, 0.4}, {20.0, 0.3}});
    EXPECT_DOUBLE_EQ(trace.loadAt(-5.0), 0.2); // held before first
    EXPECT_DOUBLE_EQ(trace.loadAt(0.0), 0.2);
    EXPECT_DOUBLE_EQ(trace.loadAt(5.0), 0.3);  // linear midpoint
    EXPECT_DOUBLE_EQ(trace.loadAt(10.0), 0.4);
    EXPECT_DOUBLE_EQ(trace.loadAt(15.0), 0.35);
    EXPECT_DOUBLE_EQ(trace.loadAt(99.0), 0.3); // held after last
    EXPECT_EQ(trace.name(), "csv-replay");

    // Just below a sample far from the origin, the interpolation
    // fraction rounds to 1; the load is the sample's, not 1 - 1 = 0.
    CsvReplayTrace far({{-1e20, 1.0}, {1e20, 1e-300}});
    EXPECT_EQ(far.loadAt(std::nextafter(1e20, 0.0)), 1e-300);
    EXPECT_THROW(trace.loadAt(std::nan("")), Error);
}

TEST(CsvReplayTrace, RoundTripsBitExactly)
{
    // Awkward doubles: %.17g must reproduce them exactly.
    CsvReplayTrace trace({{0.0, 1.0 / 3.0},
                          {1.1, 0.123456789012345678},
                          {2.7, 1.0},
                          {1e6, 0.0001}});
    CsvReplayTrace back = CsvReplayTrace::fromCsvString(trace.toCsvString());
    ASSERT_EQ(back.samples().size(), trace.samples().size());
    for (size_t i = 0; i < trace.samples().size(); ++i) {
        EXPECT_EQ(back.samples()[i].t_seconds,
                  trace.samples()[i].t_seconds);
        EXPECT_EQ(back.samples()[i].load, trace.samples()[i].load);
    }
}

TEST(CsvReplayTrace, ParsesCommentsAndBlanksNamesBadLines)
{
    CsvReplayTrace trace = CsvReplayTrace::fromCsvString(
        "# header\n\n0.0, 0.25\n  10.5 , 0.75\n");
    ASSERT_EQ(trace.samples().size(), 2u);
    EXPECT_DOUBLE_EQ(trace.samples()[1].t_seconds, 10.5);
    EXPECT_DOUBLE_EQ(trace.samples()[1].load, 0.75);

    try {
        CsvReplayTrace::fromCsvString("0,0.2\nnot-a-row\n");
        FAIL() << "expected a parse error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
    EXPECT_THROW(CsvReplayTrace::fromCsvString("0,0.2,extra\n"), Error);
    EXPECT_THROW(CsvReplayTrace::fromCsvFile("/nonexistent/trace.csv"),
                 Error);
}

TEST(CsvReplayTrace, Validation)
{
    EXPECT_THROW(CsvReplayTrace({}), Error);
    EXPECT_THROW(CsvReplayTrace({{0.0, 0.0}}), Error);
    EXPECT_THROW(CsvReplayTrace({{0.0, 1.5}}), Error);
    try {
        CsvReplayTrace({{0.0, 0.2}, {5.0, 0.3}, {5.0, 0.4}});
        FAIL() << "expected a time-order error";
    } catch (const Error& e) {
        // The error names both offending samples.
        std::string msg = e.what();
        EXPECT_NE(msg.find("sample 2"), std::string::npos);
        EXPECT_NE(msg.find("sample 1"), std::string::npos);
    }
    // sscanf's %lf parses nan and inf; a sample time must be finite.
    EXPECT_THROW(CsvReplayTrace::fromCsvString("nan,0.5\n"), Error);
    EXPECT_THROW(CsvReplayTrace::fromCsvString("-inf,0.5\n10,0.7\n"),
                 Error);
    EXPECT_THROW(CsvReplayTrace::fromCsvString("0,0.5\n+inf,0.7\n"),
                 Error);
    EXPECT_THROW(
        CsvReplayTrace({{0.0, 0.5},
                        {std::numeric_limits<double>::infinity(), 0.7}}),
        Error);
    // Finite times whose gap overflows would interpolate to NaN.
    EXPECT_THROW(CsvReplayTrace({{-1.5e308, 0.5}, {1.5e308, 0.7}}), Error);
    // A NUL would end the line early for sscanf.
    EXPECT_THROW(
        CsvReplayTrace::fromCsvString(std::string("0,0.5\0junk\n", 11)),
        Error);
}

/**
 * Every fuzzed CSV trace either throws clite::Error or replays a finite
 * load in (0, 1] on a grid around its samples, at every sample time
 * and between every pair of samples.
 */
TEST(CsvReplayTrace, FuzzedInputThrowsOrReplaysValidLoads)
{
    const std::string valid =
        "# t_seconds,load\n0,0.25\n15,0.5\n30.5,1\n45,1e-1\n";
    ASSERT_NO_THROW(CsvReplayTrace::fromCsvString(valid));
    for (const std::string& text : textMutations(valid)) {
        std::optional<CsvReplayTrace> trace;
        try {
            trace.emplace(CsvReplayTrace::fromCsvString(text));
        } catch (const Error&) {
            continue;
        }
        std::vector<double> times;
        for (double t = -10.0; t <= 100.0; t += 0.25)
            times.push_back(t);
        const std::vector<CsvReplayTrace::Sample>& s = trace->samples();
        for (size_t i = 0; i < s.size(); ++i) {
            times.push_back(s[i].t_seconds);
            if (i > 0)
                times.push_back(0.5 * (s[i - 1].t_seconds + s[i].t_seconds));
        }
        for (double t : times) {
            const double load = trace->loadAt(t);
            ASSERT_TRUE(std::isfinite(load) && load > 0.0 && load <= 1.0)
                << "input '" << text << "' t " << t << " load " << load;
        }
    }
}

TEST(TraceMeanLoad, MatchesConstantAndSine)
{
    StepTrace flat({{0.0, 0.42}});
    EXPECT_NEAR(traceMeanLoad(flat, 100.0), 0.42, 1e-12);
    // A full-period sine averages back to its base.
    DiurnalTrace sine(0.5, 0.3, 100.0);
    EXPECT_NEAR(traceMeanLoad(sine, 100.0, 0.01), 0.5, 1e-3);
    EXPECT_THROW(traceMeanLoad(flat, 0.0), Error);
    EXPECT_THROW(traceMeanLoad(flat, 10.0, 0.0), Error);
}

TEST(WithTrace, StampsIdentity)
{
    JobSpec spec;
    spec.profile.name = "memcached";
    spec.profile.qos_p95_ms = 5.0;
    spec.load_fraction = 0.9;
    JitteredDiurnalTrace trace(4);
    JobSpec traced = withTrace(spec, trace, 120.0);
    EXPECT_EQ(traced.trace_kind, "jittered-diurnal");
    EXPECT_GT(traced.trace_mean_load, 0.0);
    EXPECT_DOUBLE_EQ(traced.load_fraction, traced.trace_mean_load);
}

TEST(TrafficTraces, ThreadCountDoesNotChangeValues)
{
    // loadAt is a pure function, so the configured pool width cannot
    // matter; pin it anyway — this is the contract fleet replays rely
    // on for bit-identical runs at CLITE_THREADS=1 vs 8.
    JitteredDiurnalTrace trace(13);
    FlashCrowdTrace flash(13, 0.3);
    const int restore = ThreadPool::defaultThreadCount();
    setGlobalThreadCount(1);
    std::vector<double> one = sample(trace);
    std::vector<double> one_f = sample(flash);
    setGlobalThreadCount(8);
    EXPECT_EQ(one, sample(trace));
    EXPECT_EQ(one_f, sample(flash));
    setGlobalThreadCount(restore);
}

TEST(TrafficSweepSlow, SlowAllGeneratorsStayInBoundsAcrossSeeds)
{
    for (uint64_t seed = 0; seed < 25; ++seed) {
        JitteredDiurnalTrace::Options o;
        o.base = 0.2 + 0.06 * double(seed % 10);
        o.amplitude = 0.5;
        o.jitter = 0.2;
        expectInBounds(sample(JitteredDiurnalTrace(seed, o), 1200.0, 1.3));
        expectInBounds(sample(FlashCrowdTrace(seed, 0.15), 1200.0, 1.3));
        auto surge = std::make_shared<SurgeProcess>(seed);
        auto base = std::make_shared<DiurnalTrace>(0.4, 0.3, 170.0);
        expectInBounds(
            sample(CorrelatedTrace(base, surge, 2.0), 1200.0, 1.3));
    }
}

} // namespace
} // namespace traffic
} // namespace workloads
} // namespace clite
