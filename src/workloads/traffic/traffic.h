/**
 * @file
 * Deterministic traffic generators: the "millions of users" load
 * shapes production LC services actually see.
 *
 * The base load_trace.h layer covers the paper's Fig. 16 step pattern
 * plus clean sinusoids and rectangular bursts. This subsystem adds the
 * realistic shapes on top:
 *
 *  - JitteredDiurnalTrace — a diurnal sinusoid with seeded noise,
 *  - SurgeProcess / FlashCrowdTrace — flash crowds with Poisson onsets
 *    and exponential decay,
 *  - CorrelatedTrace — several jobs subscribing to one shared surge
 *    process (cross-job correlated spikes),
 *  - CompositeTrace — weighted sums of other traces,
 *  - CsvReplayTrace — replay of recorded "t,load" samples.
 *
 * Every generator is seed-reproducible and evaluation-order
 * independent: any randomness is either materialized at construction
 * (the surge timeline) or computed by a pure counter-keyed hash (the
 * jitter ribbon), so loadAt(t) is a pure function of t and the seed.
 * That is what makes trace-driven fleet runs bit-identical across
 * thread counts — the same contract the DES and the fleet engine obey.
 */

#ifndef CLITE_WORKLOADS_TRAFFIC_TRAFFIC_H
#define CLITE_WORKLOADS_TRAFFIC_TRAFFIC_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/load_trace.h"
#include "workloads/profile.h"

namespace clite {
namespace workloads {
namespace traffic {

/**
 * Pure counter-keyed uniform hash in [0, 1): SplitMix64 over
 * (seed, counter). Unlike a sequential Rng stream, the value at any
 * counter is independent of evaluation order — the property the
 * jittered generators need to stay bit-identical across thread counts.
 */
double hashUniform(uint64_t seed, uint64_t counter);

/**
 * A flash-crowd surge process: surge onsets arrive as a seeded Poisson
 * process over a fixed horizon; each surge has an exponentially
 * distributed peak magnitude and decays exponentially after onset:
 *
 *   surgeAt(t) = sum over onsets t_i <= t of m_i * exp(-(t - t_i)/decay)
 *
 * The whole timeline is generated at construction, so evaluation is a
 * pure function of t. Share one process between several
 * CorrelatedTrace subscribers to model crowds that hit multiple jobs
 * at once (a news event spiking search, feed and ads together).
 */
class SurgeProcess
{
  public:
    struct Options
    {
        /** Onsets are generated in [0, horizon). Queries past the
         *  horizon see only the decay of earlier surges. */
        double horizon_seconds = 3600.0;
        /** Mean Poisson inter-onset spacing. */
        double mean_interarrival_s = 240.0;
        /** Exponential decay time constant of each surge. */
        double decay_seconds = 30.0;
        /** Mean peak magnitude (load-fraction units). */
        double mean_magnitude = 0.5;
    };

    explicit SurgeProcess(uint64_t seed); ///< Default Options.
    SurgeProcess(uint64_t seed, Options options);

    /** Total surge height at @p t_seconds (>= 0). */
    double surgeAt(double t_seconds) const;

    /** Onset times in ascending order (for tests / reporting). */
    const std::vector<double>& onsets() const { return onset_s_; }

    /** Peak magnitudes parallel to onsets(). */
    const std::vector<double>& magnitudes() const { return magnitude_; }

    const Options& options() const { return options_; }

  private:
    Options options_;
    std::vector<double> onset_s_;
    std::vector<double> magnitude_;
};

/**
 * Diurnal sinusoid with seeded jitter: the DiurnalTrace sine plus a
 * piecewise-linear noise ribbon whose knots (one every
 * jitter_interval_s) are drawn from the counter-keyed hash. Clamped
 * into [0.01, 1] like the other generators.
 */
class JitteredDiurnalTrace : public LoadTrace
{
  public:
    struct Options
    {
        double base = 0.5;            ///< Mean load fraction.
        double amplitude = 0.3;       ///< Sine swing around the mean.
        double period_seconds = 600.0;///< Cycle length ("a day").
        double phase_radians = 0.0;   ///< Phase offset.
        double jitter = 0.05;         ///< Max |noise| added.
        double jitter_interval_s = 10.0; ///< Noise-knot spacing.
    };

    explicit JitteredDiurnalTrace(uint64_t seed); ///< Default Options.
    JitteredDiurnalTrace(uint64_t seed, Options options);

    double loadAt(double t_seconds) const override;
    std::string name() const override { return "jittered-diurnal"; }

    const Options& options() const { return options_; }

  private:
    uint64_t seed_;
    Options options_;
};

/**
 * Flash crowd: steady base load plus this trace's own SurgeProcess,
 * clamped into [0.01, 1].
 */
class FlashCrowdTrace : public LoadTrace
{
  public:
    /**
     * @param seed Seeds the surge timeline.
     * @param base Steady load between crowds, in (0, 1].
     * @param surge Surge process knobs.
     */
    FlashCrowdTrace(uint64_t seed, double base); ///< Default surge knobs.
    FlashCrowdTrace(uint64_t seed, double base,
                    SurgeProcess::Options surge);

    double loadAt(double t_seconds) const override;
    std::string name() const override { return "flash-crowd"; }

    const SurgeProcess& surge() const { return surge_; }

  private:
    double base_;
    SurgeProcess surge_;
};

/**
 * Correlated surge subscriber: a base trace plus gain * shared surge.
 * Every trace built on the same SurgeProcess spikes at the same
 * moments — the cross-job correlated crowds a per-job independent
 * generator cannot produce.
 */
class CorrelatedTrace : public LoadTrace
{
  public:
    /**
     * @param base The job's own baseline shape (non-null).
     * @param surge The shared surge process (non-null).
     * @param gain This job's sensitivity to the shared surge (>= 0).
     */
    CorrelatedTrace(std::shared_ptr<const LoadTrace> base,
                    std::shared_ptr<const SurgeProcess> surge,
                    double gain = 1.0);

    double loadAt(double t_seconds) const override;
    std::string name() const override { return "correlated"; }

  private:
    std::shared_ptr<const LoadTrace> base_;
    std::shared_ptr<const SurgeProcess> surge_;
    double gain_;
};

/**
 * Weighted sum of component traces, clamped into [0.01, 1]. Weights
 * need not sum to 1 — a composite of 0.6 * diurnal + 0.4 * flash-crowd
 * is the classic "daily cycle with breaking-news spikes".
 */
class CompositeTrace : public LoadTrace
{
  public:
    struct Component
    {
        std::shared_ptr<const LoadTrace> trace;
        double weight = 1.0;
    };

    explicit CompositeTrace(std::vector<Component> components);

    double loadAt(double t_seconds) const override;
    std::string name() const override { return "composite"; }

  private:
    std::vector<Component> components_;
};

/**
 * Replay of recorded samples: "t_seconds,load" rows, piecewise-linear
 * between samples, held flat before the first and after the last.
 * Sample loads are validated into (0, 1] at construction and replayed
 * exactly (interpolation between valid loads stays valid), matching
 * the StepTrace exact-contract behaviour.
 */
class CsvReplayTrace : public LoadTrace
{
  public:
    struct Sample
    {
        double t_seconds = 0.0;
        double load = 0.1;
    };

    /**
     * @param samples Samples at finite, strictly increasing times with
     *     finite gaps, at least one, every load in (0, 1].
     */
    explicit CsvReplayTrace(std::vector<Sample> samples);

    /**
     * Parse "t_seconds,load" lines. Blank lines and lines starting
     * with '#' are skipped; anything else must parse as two
     * comma-separated numbers.
     * @throws clite::Error naming the offending line on a parse error.
     */
    static CsvReplayTrace fromCsvString(const std::string& text);

    /** fromCsvString over a file's contents. */
    static CsvReplayTrace fromCsvFile(const std::string& path);

    /**
     * Serialize back to CSV with round-trip-exact (%.17g) formatting:
     * fromCsvString(toCsvString()) reproduces the trace bit-exactly.
     */
    std::string toCsvString() const;

    /** @throws clite::Error on a NaN time. */
    double loadAt(double t_seconds) const override;
    std::string name() const override { return "csv-replay"; }

    const std::vector<Sample>& samples() const { return samples_; }

  private:
    std::vector<Sample> samples_;
};

/**
 * Mean load of @p trace over [0, horizon_seconds), sampled every
 * @p step_seconds — the stable per-job identity load MixSignature
 * hashes for trace-driven mixes.
 */
double traceMeanLoad(const LoadTrace& trace, double horizon_seconds,
                     double step_seconds = 1.0);

/**
 * Stamp a JobSpec's trace identity: sets spec.trace_kind to
 * trace.name() and spec.trace_mean_load (and the initial
 * load_fraction) to the trace mean over the horizon.
 */
JobSpec withTrace(JobSpec spec, const LoadTrace& trace,
                  double horizon_seconds, double step_seconds = 1.0);

} // namespace traffic
} // namespace workloads
} // namespace clite

#endif // CLITE_WORKLOADS_TRAFFIC_TRAFFIC_H
