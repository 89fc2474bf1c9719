/**
 * @file
 * Bridges between stored snapshots and the live controller: convert a
 * Snapshot into a core::WarmStart that seeds CLITE's bootstrap, and
 * capture a controller's learned state into a Snapshot for the store.
 *
 * Cold-start fallback contract: every conversion is defensive. A
 * snapshot whose shape does not match the server (job count, knob
 * kinds/units), or whose allocations do not validate, yields an EMPTY
 * WarmStart — the caller proceeds exactly as if no prior existed.
 * Decode failures never propagate past this layer.
 */

#ifndef CLITE_STORE_WARM_START_H
#define CLITE_STORE_WARM_START_H

#include "core/clite.h"
#include "core/controller.h"
#include "store/snapshot.h"

namespace clite {
namespace store {

/** Prior configurations (beyond the incumbent) a warm start seeds. */
constexpr size_t kWarmStartMaxConfigs = 3;

/** Sample cap of a captured snapshot (best-score-first). */
constexpr size_t kSnapshotMaxSamples = 64;

/**
 * Turn @p snap into a WarmStart for @p server's current mix: its
 * incumbent plus up to kWarmStartMaxConfigs prior configurations.
 *
 * @param exact True when the snapshot's signature matched the mix
 *     exactly (enables trusted_feasible when the prior converged with
 *     all QoS met); false for a similar-mix prior, which only seeds
 *     configurations and keeps the full infeasibility bootstrap.
 * @return An empty WarmStart when the snapshot does not fit @p server.
 */
core::WarmStart warmStartFromSnapshot(const Snapshot& snap,
                                      const platform::SimulatedServer& server,
                                      bool exact);

/**
 * Capture controller state into a Snapshot: @p server's current mix
 * plus the usable samples of @p result (quarantined samples are
 * faulted telemetry — they never enter a snapshot), the incumbent the
 * manager is monitoring, and lifecycle metadata.
 *
 * Samples are stored best-score-first and capped at
 * @p max_samples so snapshots stay small; the incumbent is always
 * retained.
 */
Snapshot captureSnapshot(const platform::SimulatedServer& server,
                         const core::ControllerResult& result,
                         const platform::Allocation& incumbent,
                         ControllerPhase phase, bool incumbent_qos_met,
                         uint64_t windows,
                         size_t max_samples = kSnapshotMaxSamples);

} // namespace store
} // namespace clite

#endif // CLITE_STORE_WARM_START_H
