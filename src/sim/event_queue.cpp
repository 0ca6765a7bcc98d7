#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "sim/log.hpp"

namespace utlb::sim {

void
EventQueue::schedule(Tick when, EventFn fn)
{
    if (when < curTick) {
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick));
    }
    std::uint32_t slot;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
        fns[slot] = std::move(fn);
    } else {
        slot = static_cast<std::uint32_t>(fns.size());
        fns.push_back(std::move(fn));
    }
    heap.push_back(Entry{when, nextSeq++, slot});
    std::push_heap(heap.begin(), heap.end(), Later{});
}

Tick
EventQueue::run()
{
    while (step()) {
        // run to empty
    }
    return curTick;
}

std::uint64_t
EventQueue::runUntil(Tick horizon)
{
    std::uint64_t count = 0;
    while (!heap.empty() && heap.front().when <= horizon) {
        step();
        ++count;
    }
    if (curTick < horizon)
        curTick = horizon;
    return count;
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;
    std::pop_heap(heap.begin(), heap.end(), Later{});
    Entry e = heap.back();
    heap.pop_back();
    // Move the callable out before running it: it may schedule new
    // events, which can reuse its slot or grow the slot array.
    EventFn fn = std::move(fns[e.slot]);
    freeSlots.push_back(e.slot);
    UTLB_ASSERT(e.when >= curTick,
                "event %llu fires at %llu, before the current tick "
                "%llu",
                static_cast<unsigned long long>(e.seq),
                static_cast<unsigned long long>(e.when),
                static_cast<unsigned long long>(curTick));
    curTick = e.when;
    ++numFired;
    fn();
    return true;
}

void
EventQueue::clear()
{
    heap.clear();
    fns.clear();
    freeSlots.clear();
}

void
EventQueue::audit(check::AuditReport &report) const
{
    report.component("event-queue");
    if (!heap.empty()) {
        const Entry &next = heap.front();
        report.require(next.when >= curTick,
                       "next event (seq %llu) is scheduled at %llu, "
                       "in the past of tick %llu",
                       static_cast<unsigned long long>(next.seq),
                       static_cast<unsigned long long>(next.when),
                       static_cast<unsigned long long>(curTick));
        report.require(next.seq < nextSeq,
                       "pending event carries sequence %llu >= the "
                       "allocator's next %llu",
                       static_cast<unsigned long long>(next.seq),
                       static_cast<unsigned long long>(nextSeq));
    }
    // Every sequence number ever handed out was either fired,
    // dropped by clear(), or is still pending; fired + pending can
    // never exceed the total handed out.
    report.require(numFired + heap.size() <= nextSeq,
                   "%llu fired + %zu pending events exceed the %llu "
                   "sequence numbers ever issued",
                   static_cast<unsigned long long>(numFired),
                   heap.size(),
                   static_cast<unsigned long long>(nextSeq));
    // Each callable slot holds exactly one pending event or is free.
    report.require(heap.size() + freeSlots.size() == fns.size(),
                   "%zu pending + %zu free slots do not account for "
                   "%zu callable slots",
                   heap.size(), freeSlots.size(), fns.size());
}

} // namespace utlb::sim
