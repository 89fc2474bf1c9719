/**
 * @file
 * Canonical job-mix signatures for the warm-start profile store.
 *
 * At warehouse scale the same co-location mixes recur constantly
 * across nodes and controller restarts. A MixSignature is the
 * order-independent identity of one mix: the multiset of job
 * descriptors (workload name, class, QoS target, load level) plus the
 * knob dimensions of the server (resource kinds and unit counts).
 * Snapshots in the ProfileStore are keyed by the signature hash;
 * exact-hit lookups warm-start a controller with everything a prior
 * run of the same mix learned, and the signature distance() supports
 * k-nearest similar-mix lookups (same jobs, drifted load levels).
 *
 * Determinism contract: the signature of a mix is a pure function of
 * the descriptors above — independent of job order on the server, of
 * the node that computed it, and of the thread it was computed on.
 */

#ifndef CLITE_STORE_SIGNATURE_H
#define CLITE_STORE_SIGNATURE_H

#include <cstdint>
#include <string>
#include <vector>

#include "platform/resource.h"
#include "workloads/profile.h"

namespace clite {
namespace platform {
class SimulatedServer;
}

namespace store {

/** One job's identity inside a signature (canonicalized). */
struct SignatureJob
{
    std::string name;          ///< Workload name.
    bool is_lc = false;        ///< Latency-critical?
    double qos_p95_ms = 0.0;   ///< QoS target (0 for BG jobs).
    /**
     * Offered load level (0 for BG jobs). For a trace-driven job this
     * is the trace MEAN load — the stable identity of a load that
     * varies window to window.
     */
    double load_fraction = 0.0;
    /**
     * LoadTrace kind driving the job's load ("" for a static load).
     * Folded into the hash only when non-empty, so every static-mix
     * signature is byte-identical to what it was before traces
     * existed — but a trace-driven mix can never alias a static
     * profile (or a different trace shape) as an exact hit.
     */
    std::string trace_kind{};
};

/**
 * Order-independent identity of a job mix on a knob space.
 */
class MixSignature
{
  public:
    MixSignature() = default;

    /** Signature of the mix currently hosted by @p server. */
    static MixSignature of(const platform::SimulatedServer& server);

    /** Signature of @p jobs (any order) on @p config's knob space. */
    static MixSignature of(const platform::ServerConfig& config,
                           const std::vector<workloads::JobSpec>& jobs);

    /**
     * Signature from raw descriptors (the snapshot decode path):
     * per-knob resource kinds and unit counts, plus job descriptors in
     * any order.
     */
    static MixSignature of(const std::vector<uint8_t>& knob_kinds,
                           const std::vector<int>& knob_units,
                           const std::vector<SignatureJob>& jobs);

    /** 64-bit FNV-1a hash of the canonical byte encoding. */
    uint64_t hash() const { return hash_; }

    /** Canonically sorted job descriptors. */
    const std::vector<SignatureJob>& jobs() const { return jobs_; }

    /** Per-knob resource kinds (platform::Resource as uint8). */
    const std::vector<uint8_t>& knobKinds() const { return knob_kinds_; }

    /** Per-knob unit counts. */
    const std::vector<int>& knobUnits() const { return knob_units_; }

    /** Fixed-width hex key ("%016x" of hash), for filenames. */
    std::string key() const;

    /** Human-readable one-liner for logs and JSON dumps. */
    std::string describe() const;

    /**
     * Mix distance for the k-nearest similar-mix lookup: +infinity
     * when the knob spaces differ or the job multisets differ in
     * anything but load level; otherwise the sum of absolute
     * load-level differences over the canonical pairing (both sides
     * sorted, which is the optimal 1-D matching). Exact matches have
     * distance 0.
     */
    static double distance(const MixSignature& a, const MixSignature& b);

    /** Full structural equality (not just hash equality). */
    bool operator==(const MixSignature& other) const;

  private:
    std::vector<SignatureJob> jobs_;  ///< sorted canonical order
    std::vector<uint8_t> knob_kinds_; ///< per resource, server order
    std::vector<int> knob_units_;     ///< per resource, server order
    uint64_t hash_ = 0;

    void canonicalize();
};

} // namespace store
} // namespace clite

#endif // CLITE_STORE_SIGNATURE_H
