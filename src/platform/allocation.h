/**
 * @file
 * A resource-partition configuration: the integer matrix x(j, r) of
 * Eq. 4–6 assigning every unit of every shared resource to exactly one
 * co-located job. This is the "configuration"/"sample point" the whole
 * paper optimizes over.
 */

#ifndef CLITE_PLATFORM_ALLOCATION_H
#define CLITE_PLATFORM_ALLOCATION_H

#include <string>
#include <vector>

#include "platform/resource.h"

namespace clite {
namespace platform {

/**
 * Integer job x resource allocation matrix with the paper's validity
 * invariants: every entry >= 1 and every resource column sums to that
 * resource's unit count.
 */
class Allocation
{
  public:
    /**
     * Construct with every job getting 1 unit of everything and the
     * remainder unassigned — callers must distribute the rest before
     * validate() passes; prefer the factories below.
     */
    Allocation(size_t njobs, const ServerConfig& config);

    /** Equal division of every resource (bootstrap sample type 1). */
    static Allocation equalShare(size_t njobs, const ServerConfig& config);

    /**
     * Extremum: job @p favoured gets the maximum possible allocation of
     * every resource, every other job gets exactly 1 unit (bootstrap
     * sample type 2).
     */
    static Allocation maxFor(size_t favoured, size_t njobs,
                             const ServerConfig& config);

    /** Number of co-located jobs. */
    size_t jobs() const { return njobs_; }

    /** Number of resources. */
    size_t resources() const { return units_per_resource_.size(); }

    /** Units of resource @p r owned by job @p j. */
    int get(size_t j, size_t r) const;

    /** Job @p j's row: its units of every resource, in resource order. */
    std::vector<int> row(size_t j) const;

    /** Set the units of resource @p r owned by job @p j. */
    void set(size_t j, size_t r, int units);

    /** Total units of resource @p r on the server. */
    int resourceUnits(size_t r) const;

    /** Sum of column @p r across jobs. */
    int columnSum(size_t r) const;

    /**
     * True when every entry is >= 1 and every column sums to the
     * resource's unit count.
     */
    bool valid() const;

    /** Throwing variant of valid() with a diagnostic message. */
    void validate() const;

    /**
     * Move one unit of resource @p r from job @p from to job @p to.
     * @return false (and change nothing) if @p from is at 1 unit.
     */
    bool transferUnit(size_t r, size_t from, size_t to);

    /**
     * Shape-adapt to one more job (appended at the end, matching
     * SimulatedServer::addJob): the newcomer receives roughly its
     * equal share of every resource, taken one unit at a time from
     * whichever incumbent job currently holds the most (ties to the
     * lowest index), so the relative partition the search converged on
     * is preserved as a warm start for the next optimization.
     *
     * @throws clite::Error when some resource cannot give the new job
     *     a unit (every incumbent already at 1).
     */
    Allocation withJobAdded() const;

    /**
     * Shape-adapt to the removal of job @p j (remaining jobs keep
     * their relative order, matching SimulatedServer::removeJob): the
     * departed job's units are redistributed one at a time to
     * whichever remaining job currently holds the least (ties to the
     * lowest index).
     *
     * @pre jobs() >= 2 and j < jobs().
     */
    Allocation withJobRemoved(size_t j) const;

    /**
     * Flatten to doubles in job-major order [x(0,0), x(0,1), ..,
     * x(J-1,R-1)], normalized by each resource's unit count so the GP
     * operates on [0, 1] coordinates.
     */
    std::vector<double> flattenNormalized() const;

    /** Dimension of the flattened vector: jobs() * resources(). */
    size_t flatSize() const { return njobs_ * resources(); }

    /**
     * Rebuild from a normalized flat vector (values are denormalized,
     * rounded sum-preservingly per resource, and clamped to validity).
     */
    static Allocation fromFlatNormalized(const std::vector<double>& flat,
                                         size_t njobs,
                                         const ServerConfig& config);

    /** Canonical string key ("3,4,2|5,5,1|..."), for dedup sets. */
    std::string key() const;

    /** Element-wise equality. */
    bool operator==(const Allocation& other) const;

  private:
    size_t njobs_;
    std::vector<int> units_per_resource_;
    std::vector<int> cells_; // job-major
};

} // namespace platform
} // namespace clite

#endif // CLITE_PLATFORM_ALLOCATION_H
