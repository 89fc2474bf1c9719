/**
 * @file
 * Discrete-event simulation core of the DES test oracle.
 *
 * A classic calendar/event-queue simulator: events are (time, callback)
 * pairs processed in non-decreasing time order with FIFO tie-breaking.
 * The reference queueing station (reference_station.h) is built on it:
 * the readable, generic form of "running the system for the two second
 * observation period" that the specialized production loop in
 * sim/queueing.h is pinned against, bit for bit.
 *
 * Storage layout: the pending set is a binary min-heap of POD entries
 * (time, seq, slot) over a slab of callback slots recycled through a
 * free list. Heap sift operations therefore move 24-byte PODs instead
 * of std::function objects, and neither the heap nor the slab ever
 * shrinks — a simulator reused across measurement windows (clear() +
 * reserve()) reaches a steady state with zero allocations per window.
 * The pop order is exactly the (time, seq) order of the previous
 * std::priority_queue implementation; seq is unique per event, so the
 * order is total and independent of the container
 * (event_queue_test.cpp pins this against a reference priority queue
 * across random schedules).
 */

#ifndef CLITE_TESTS_SIM_EVENT_QUEUE_H
#define CLITE_TESTS_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

namespace clite {
namespace sim {

/** Simulated time in seconds. */
using SimTime = double;

/**
 * Event-driven simulator with a monotonically advancing clock.
 */
class Simulator
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Number of events processed so far. */
    uint64_t eventsProcessed() const { return processed_; }

    /** Number of events currently pending. */
    size_t pendingEvents() const { return heap_.size(); }

    /**
     * Schedule @p fn to run @p delay seconds from now.
     * @pre delay >= 0
     */
    void schedule(SimTime delay, Callback fn);

    /**
     * Schedule @p fn at absolute time @p when.
     * @pre when >= now()
     */
    void scheduleAt(SimTime when, Callback fn);

    /**
     * Run events until the queue empties or the clock would pass
     * @p until. Events scheduled exactly at @p until are processed.
     *
     * @return Simulated time reached.
     */
    SimTime runUntil(SimTime until);

    /** Run until the event queue is empty. @return final time. */
    SimTime runToCompletion();

    /** Drop all pending events (clock is unchanged). */
    void clearPending();

    /**
     * Reset to a freshly constructed simulator — clock at 0, no
     * pending events, counters zeroed — while keeping the heap and
     * callback-slab capacity. This is the reuse hook for drivers that
     * run many simulations back to back (the reference station's
     * measurements): clear() + reserve() once, then every subsequent
     * window schedules into recycled storage.
     */
    void clear();

    /**
     * Pre-size the heap and the callback slab for @p events
     * simultaneously pending events. Never shrinks.
     */
    void reserve(size_t events);

  private:
    /**
     * One pending event. The callback lives in slots_[slot]; the heap
     * only shuffles these PODs. Order: (time, seq) ascending, seq
     * being the schedule sequence number (FIFO tie-break).
     */
    struct HeapEntry
    {
        SimTime time;
        uint64_t seq;
        uint32_t slot;
    };

    /** True when @p a must be processed before @p b. */
    static bool
    before(const HeapEntry& a, const HeapEntry& b)
    {
        if (a.time != b.time)
            return a.time < b.time;
        return a.seq < b.seq;
    }

    /** Move heap_[pos] up to its place. */
    void siftUp(size_t pos);

    /** Move heap_[pos] down to its place. */
    void siftDown(size_t pos);

    std::vector<HeapEntry> heap_;      ///< binary min-heap of pending events
    std::vector<Callback> slots_;      ///< callback slab indexed by slot
    std::vector<uint32_t> free_slots_; ///< recycled slab indices
    SimTime now_ = 0.0;
    uint64_t next_seq_ = 0;
    uint64_t processed_ = 0;
};

} // namespace sim
} // namespace clite

#endif // CLITE_TESTS_SIM_EVENT_QUEUE_H
