/**
 * @file
 * The warm-start profile store: snapshots keyed by job-mix signature.
 *
 * A ProfileStore maps MixSignature hashes to the freshest Snapshot of
 * that mix. Lookups come in two flavors: find() (exact signature hit —
 * a recurring mix) and nearest() (k-nearest similar mixes by signature
 * distance — same jobs at drifted load levels). Entries live in an
 * ordered map and neighbors are ranked by (distance, hash), so every
 * query is deterministic regardless of insertion order.
 *
 * Thread-safety and determinism under the fleet's thread pool: all
 * methods are mutex-protected, so concurrent reads from node steps
 * are safe; writes are expected to come from the fleet engine's own
 * thread as it settles commits, in node order (see
 * cluster/manager.cpp), which makes the stored content — and therefore
 * every later lookup — bit-identical between serial and parallel
 * runs. A standalone OnlineManager (auto-checkpoint mode) writes from
 * its own single thread.
 *
 * Persistence is explicit: saveDir()/loadDir() write one
 * "<hex-signature>.snap" file per entry. Corrupt files are skipped
 * (and counted), never fatal — losing a snapshot only costs the warm
 * start it would have provided.
 *
 * Lifecycle (fleet-month runs see far more mixes than are worth
 * keeping): an optional entry cap evicts the least-recently-PUT entry
 * — recency advances on writes only, never on reads, so concurrent
 * lookups from pool threads cannot perturb the eviction order and
 * serial-vs-parallel determinism is preserved. An optional staleness
 * bound decays trust: an entry not refreshed for more than
 * trust_staleness puts is served with its Steady phase demoted to
 * Search, so warmStartFromSnapshot() no longer grants it
 * trusted_feasible (the full infeasibility bootstrap runs again) while
 * its configurations still seed the search.
 */

#ifndef CLITE_STORE_PROFILE_STORE_H
#define CLITE_STORE_PROFILE_STORE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/snapshot.h"

namespace clite {
namespace store {

/** A similar-mix lookup result. */
struct Neighbor
{
    Snapshot snapshot;     ///< The stored snapshot (copy).
    double distance = 0.0; ///< Signature distance to the query.
};

/** Store lifecycle knobs. */
struct ProfileStoreOptions
{
    /**
     * Entry cap; inserting past it evicts the least-recently-put
     * entry (ties: lowest signature hash). 0 = unbounded (the
     * pre-lifecycle behaviour).
     */
    size_t max_entries = 0;
    /**
     * Puts after which an unrefreshed entry's Steady phase is served
     * demoted to Search (decaying trusted_feasible). 0 = never decay.
     */
    uint64_t trust_staleness = 0;
};

/**
 * In-memory snapshot store with optional directory persistence.
 */
class ProfileStore
{
  public:
    ProfileStore() = default;
    explicit ProfileStore(ProfileStoreOptions options);

    // The mutex makes the store non-copyable; share by pointer.
    ProfileStore(const ProfileStore&) = delete;
    ProfileStore& operator=(const ProfileStore&) = delete;

    /** Insert or replace the entry for @p snap's signature. */
    void put(Snapshot snap);

    /** Exact-signature lookup. */
    std::optional<Snapshot> find(const MixSignature& sig) const;

    /**
     * The k nearest stored mixes by signature distance, closest
     * first, ties broken by signature hash. Entries at infinite
     * distance (structurally different mixes) are never returned;
     * an exact hit (distance 0) is included when present.
     */
    std::vector<Neighbor> nearest(const MixSignature& sig, size_t k) const;

    /** Number of stored entries. */
    size_t size() const;

    /** Drop every entry (tests). */
    void clear();

    /** Corrupt snapshot files skipped by loadDir() so far. */
    uint64_t corruptRejected() const;

    /** Entries evicted by the LRU cap so far. */
    uint64_t evictions() const;

    /** The lifecycle options in effect. */
    const ProfileStoreOptions& options() const { return options_; }

    /**
     * Load every "*.snap" file under @p dir (sorted by filename for
     * determinism). Corrupt or unreadable files are skipped and
     * counted in corruptRejected(). Missing directory loads nothing.
     * @return Number of snapshots loaded.
     */
    size_t loadDir(const std::string& dir);

    /**
     * Write every entry to "<dir>/<hex-signature>.snap", creating the
     * directory if needed.
     * @return Number of snapshots written.
     */
    size_t saveDir(const std::string& dir) const;

    /** Decode one snapshot file; nullopt on any error or corruption. */
    static std::optional<Snapshot> loadFile(const std::string& path);

    /** Encode one snapshot to @p path; false on I/O failure. */
    static bool saveFile(const std::string& path, const Snapshot& snap);

  private:
    /** One stored snapshot plus its write-recency stamp. */
    struct Entry
    {
        Snapshot snap;
        uint64_t last_put = 0; ///< put_clock_ value of the last put().
    };

    /** Apply the staleness decay to a copy being served (mu_ held). */
    Snapshot serve(const Entry& entry) const;

    ProfileStoreOptions options_;
    mutable std::mutex mu_;
    std::map<uint64_t, Entry> entries_; ///< keyed by signature hash
    uint64_t put_clock_ = 0;
    uint64_t corrupt_rejected_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace store
} // namespace clite

#endif // CLITE_STORE_PROFILE_STORE_H
