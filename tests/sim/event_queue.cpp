#include "event_queue.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.h"

namespace clite {
namespace sim {

void
Simulator::schedule(SimTime delay, Callback fn)
{
    CLITE_CHECK(delay >= 0.0, "cannot schedule into the past (delay "
                                  << delay << ")");
    scheduleAt(now_ + delay, std::move(fn));
}

void
Simulator::scheduleAt(SimTime when, Callback fn)
{
    CLITE_CHECK(when >= now_, "cannot schedule at " << when
                                  << ", clock is already at " << now_);
    uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot] = std::move(fn);
    } else {
        slot = uint32_t(slots_.size());
        slots_.push_back(std::move(fn));
    }
    heap_.push_back(HeapEntry{when, next_seq_++, slot});
    siftUp(heap_.size() - 1);
}

void
Simulator::siftUp(size_t pos)
{
    HeapEntry e = heap_[pos];
    while (pos > 0) {
        size_t parent = (pos - 1) / 2;
        if (!before(e, heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        pos = parent;
    }
    heap_[pos] = e;
}

void
Simulator::siftDown(size_t pos)
{
    const size_t n = heap_.size();
    HeapEntry e = heap_[pos];
    for (;;) {
        size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], e))
            break;
        heap_[pos] = heap_[child];
        pos = child;
    }
    heap_[pos] = e;
}

SimTime
Simulator::runUntil(SimTime until)
{
    while (!heap_.empty() && heap_[0].time <= until) {
        const HeapEntry top = heap_[0];
        // Pop: move the last entry to the root and sift it down.
        heap_[0] = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
        // Move the callback out of its slot and recycle the slot
        // before invoking, so a callback that schedules new events
        // (the common case) reuses warm storage immediately.
        Callback fn = std::move(slots_[top.slot]);
        slots_[top.slot] = nullptr;
        free_slots_.push_back(top.slot);
        now_ = top.time;
        ++processed_;
        fn();
    }
    if (std::isfinite(until))
        now_ = std::max(now_, until);
    return now_;
}

SimTime
Simulator::runToCompletion()
{
    return runUntil(std::numeric_limits<SimTime>::infinity());
}

void
Simulator::clearPending()
{
    for (const HeapEntry& e : heap_) {
        slots_[e.slot] = nullptr;
        free_slots_.push_back(e.slot);
    }
    heap_.clear();
}

void
Simulator::clear()
{
    clearPending();
    now_ = 0.0;
    next_seq_ = 0;
    processed_ = 0;
}

void
Simulator::reserve(size_t events)
{
    heap_.reserve(events);
    free_slots_.reserve(events);
    if (slots_.size() < events) {
        // Materialize the slab up front (empty std::functions) so the
        // free list can hand out warm slots without growth.
        size_t old = slots_.size();
        slots_.resize(events);
        for (size_t s = events; s-- > old;)
            free_slots_.push_back(uint32_t(s));
    }
}

} // namespace sim
} // namespace clite
