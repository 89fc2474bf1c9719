/**
 * @file
 * The end-to-end benchmark's four workloads.
 *
 *  - node-search: back-to-back single-node CLITE searches on balanced
 *    3-5 job mixes, DES backend in fine mode (the paper's own loop).
 *  - fleet-diurnal: 32 DES nodes, lockstep Fleet::tick, every LC job's
 *    load following its own jittered diurnal trace.
 *  - fleet-diurnal-async: the same scenario on AsyncFleetEngine, so a
 *    change that helps one engine and costs the other shows.
 *  - fleet-steady-1k: 1024 analytic nodes on the async engine with
 *    static loads and unservable tenants: no DES runs, so monitoring
 *    ticks, manager events, placement, store puts and the searches of
 *    evicted jobs dominate (the bypass workload for sim changes).
 *
 * The workload seed drives every random stream the library consumes
 * (noise, DES draws, controller choices, trace jitter, worker faults);
 * the library receives only the generated inputs. Steps are
 * closed-loop: the driver issues the next search or window only after
 * the previous call returned.
 */

#ifndef CLITE_BENCH_E2E_WORKLOADS_H
#define CLITE_BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tracer.h"

namespace e2e {

/** A named number with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/**
 * Result-quality metrics. They repeat exactly for a given seed and code
 * at any thread count.
 */
struct Quality
{
    /** Ground-truth LC jobs meeting p95 over LC jobs admitted. */
    double qos_met_frac = 0.0;
    /** Mean ground-truth normalized BG throughput over admitted BG. */
    double bg_perf = 0.0;
    /** Measured windows in which some LC job missed its p95 target. */
    double violating_window_frac = 0.0;
    /** Search observation windows per search. */
    double windows_per_search = 0.0;
    /** node-search only: mean windows to the first QoS-met sample. */
    double windows_to_qos = -1.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs and the system; called once, before step(). */
    virtual void setup() = 0;

    /** One closed-loop step: one search, or one fleet window. */
    virtual void step(int i) = 0;

    /**
     * Untimed bookkeeping after step @p i: invariant checks (throwing
     * CorrectnessError), ground-truth sampling for the quality metrics,
     * preparing the next step's inputs and, when traced, the outside-in
     * probes of the truth, placement and store layers.
     */
    virtual void afterStep(int i) = 0;

    /** Node observation windows committed by the last step. */
    virtual uint64_t stepWindows() const = 0;

    /** Operations attempted and failed so far (searches or windows). */
    virtual uint64_t attempted() const = 0;
    virtual uint64_t failed() const = 0;

    virtual Quality quality() const = 0;

    /** Deterministic fingerprint of every decision made so far. */
    virtual std::string digest() const = 0;

    /**
     * Per-layer counters and probe timings of the run so far; times
     * come from @p tracer's spans.
     */
    virtual void layerMetrics(const Tracer& tracer, int steps,
                              MetricMap& out) const = 0;
};

/** Thrown when an output or invariant check fails. */
struct CorrectnessError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The workload names, in reporting order. */
const std::vector<std::string>& workloadNames();

/**
 * Build workload @p name for @p seed. The fleets sample ground truth for
 * the quality metrics over the first @p quality_steps windows only; the
 * driver reads quality() right after that step. @p tracer (null for the
 * untraced run) receives the spans of the outside-in probes.
 * @throws std::invalid_argument for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       uint64_t seed, int quality_steps,
                                       Tracer* tracer);

} // namespace e2e

#endif // CLITE_BENCH_E2E_WORKLOADS_H
