#include "store/warm_start.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "common/log.h"
#include "platform/server.h"

namespace clite {
namespace store {

namespace {

int64_t
quantize(double v)
{
    return llround(v * 1e6);
}

/** Canonical descriptor sort key (load last, as in the signature). */
std::tuple<std::string, bool, int64_t, std::string, int64_t>
jobKey(const SignatureJob& j)
{
    return {j.name, j.is_lc, quantize(j.qos_p95_ms), j.trace_kind,
            quantize(j.load_fraction)};
}

SignatureJob
describeJob(const workloads::JobSpec& spec)
{
    SignatureJob j;
    j.name = spec.profile.name;
    j.is_lc = spec.isLatencyCritical();
    j.qos_p95_ms = j.is_lc ? spec.profile.qos_p95_ms : 0.0;
    // Mirror MixSignature::of: trace-driven jobs are identified by
    // their trace kind and mean load, not the window's instantaneous
    // load, so checkpoints of a trace-driven mix key consistently.
    j.trace_kind = j.is_lc ? spec.trace_kind : std::string();
    j.load_fraction = !j.is_lc ? 0.0
                      : j.trace_kind.empty() ? spec.load_fraction
                                             : spec.trace_mean_load;
    return j;
}

/**
 * Map snapshot job indices onto server job indices: both descriptor
 * lists are sorted canonically and paired position-wise (the same
 * pairing the signature distance uses), so the mapping is total and
 * deterministic whenever the mixes are structurally compatible.
 * @return empty vector when they are not.
 */
std::vector<size_t>
jobPermutation(const std::vector<SignatureJob>& snap_jobs,
               const platform::SimulatedServer& server)
{
    if (snap_jobs.size() != server.jobCount())
        return {};
    std::vector<size_t> snap_order(snap_jobs.size());
    std::vector<size_t> server_order(snap_jobs.size());
    std::vector<SignatureJob> server_jobs;
    for (size_t j = 0; j < server.jobCount(); ++j)
        server_jobs.push_back(describeJob(server.job(j)));
    for (size_t i = 0; i < snap_jobs.size(); ++i)
        snap_order[i] = server_order[i] = i;
    std::sort(snap_order.begin(), snap_order.end(),
              [&](size_t a, size_t b) {
                  return jobKey(snap_jobs[a]) < jobKey(snap_jobs[b]);
              });
    std::sort(server_order.begin(), server_order.end(),
              [&](size_t a, size_t b) {
                  return jobKey(server_jobs[a]) < jobKey(server_jobs[b]);
              });
    std::vector<size_t> perm(snap_jobs.size());
    for (size_t i = 0; i < snap_order.size(); ++i) {
        const SignatureJob& a = snap_jobs[snap_order[i]];
        const SignatureJob& b = server_jobs[server_order[i]];
        // Load levels may differ (similar-mix priors); everything
        // else must match for the rows to be transferable.
        if (a.name != b.name || a.is_lc != b.is_lc ||
            quantize(a.qos_p95_ms) != quantize(b.qos_p95_ms))
            return {};
        perm[snap_order[i]] = server_order[i];
    }
    return perm;
}

/** Rebuild one allocation from snapshot cells, remapping job rows. */
std::optional<platform::Allocation>
allocationFromCells(const std::vector<int32_t>& cells,
                    const std::vector<size_t>& perm,
                    const platform::ServerConfig& config)
{
    const size_t njobs = perm.size();
    const size_t nres = config.resourceCount();
    if (cells.size() != njobs * nres)
        return std::nullopt;
    platform::Allocation alloc(njobs, config);
    for (size_t sj = 0; sj < njobs; ++sj)
        for (size_t r = 0; r < nres; ++r)
            alloc.set(perm[sj], r, cells[sj * nres + r]);
    if (!alloc.valid())
        return std::nullopt;
    return alloc;
}

} // namespace

core::WarmStart
warmStartFromSnapshot(const Snapshot& snap,
                      const platform::SimulatedServer& server, bool exact)
{
    core::WarmStart warm;
    const platform::ServerConfig& config = server.config();

    // Knob spaces must agree knob-for-knob.
    if (snap.knob_kinds.size() != config.resourceCount())
        return warm;
    for (size_t r = 0; r < config.resourceCount(); ++r)
        if (snap.knob_kinds[r] != uint8_t(config.resource(r).kind) ||
            snap.knob_units[r] != config.resource(r).units)
            return warm;

    std::vector<size_t> perm = jobPermutation(snap.jobs, server);
    if (perm.empty())
        return warm;

    std::set<std::string> seen;
    if (!snap.incumbent.empty()) {
        std::optional<platform::Allocation> inc =
            allocationFromCells(snap.incumbent, perm, config);
        if (inc.has_value()) {
            seen.insert(inc->key());
            warm.incumbent = std::move(*inc);
        }
    }

    // Prior configurations ranked QoS-feasible-first, then by score,
    // with the original trace order as the deterministic tie-break.
    std::vector<size_t> order(snap.samples.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const SnapshotSample& sa = snap.samples[a];
        const SnapshotSample& sb = snap.samples[b];
        if (sa.all_qos_met != sb.all_qos_met)
            return sa.all_qos_met;
        return sa.score > sb.score;
    });
    for (size_t idx : order) {
        if (warm.configs.size() >= kWarmStartMaxConfigs)
            break;
        std::optional<platform::Allocation> alloc =
            allocationFromCells(snap.samples[idx].cells, perm, config);
        if (!alloc.has_value() || !seen.insert(alloc->key()).second)
            continue;
        warm.configs.push_back(std::move(*alloc));
    }

    warm.trusted_feasible = exact && warm.incumbent.has_value() &&
                            snap.phase == ControllerPhase::Steady &&
                            snap.incumbent_qos_met;
    return warm;
}

Snapshot
captureSnapshot(const platform::SimulatedServer& server,
                const core::ControllerResult& result,
                const platform::Allocation& incumbent,
                ControllerPhase phase, bool incumbent_qos_met,
                uint64_t windows, size_t max_samples)
{
    Snapshot snap;
    const platform::ServerConfig& config = server.config();
    for (size_t j = 0; j < server.jobCount(); ++j)
        snap.jobs.push_back(describeJob(server.job(j)));
    for (size_t r = 0; r < config.resourceCount(); ++r) {
        snap.knob_kinds.push_back(uint8_t(config.resource(r).kind));
        snap.knob_units.push_back(config.resource(r).units);
    }

    const size_t njobs = server.jobCount();
    const size_t nres = config.resourceCount();
    auto flatten = [&](const platform::Allocation& a) {
        std::vector<int32_t> cells(njobs * nres);
        for (size_t j = 0; j < njobs; ++j)
            for (size_t r = 0; r < nres; ++r)
                cells[j * nres + r] = a.get(j, r);
        return cells;
    };

    // Best-score-first usable samples (trace order breaks ties), so a
    // capped snapshot keeps the configurations worth re-evaluating.
    std::vector<size_t> order;
    for (size_t i = 0; i < result.trace.size(); ++i)
        if (result.trace[i].usable() &&
            result.trace[i].alloc.jobs() == njobs &&
            result.trace[i].alloc.resources() == nres)
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return result.trace[a].score > result.trace[b].score;
    });
    if (order.size() > max_samples)
        order.resize(max_samples);
    for (size_t idx : order) {
        const core::SampleRecord& rec = result.trace[idx];
        SnapshotSample s;
        s.cells = flatten(rec.alloc);
        s.score = rec.score;
        s.all_qos_met = rec.all_qos_met;
        snap.samples.push_back(std::move(s));
    }

    if (incumbent.jobs() == njobs && incumbent.resources() == nres)
        snap.incumbent = flatten(incumbent);
    snap.phase = phase;
    snap.incumbent_qos_met = incumbent_qos_met;
    snap.windows = windows;
    return snap;
}

} // namespace store
} // namespace clite
