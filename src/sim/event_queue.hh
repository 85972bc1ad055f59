/**
 * @file
 * Per-node target-cycle event queue.
 *
 * In FireSim, each server blade is a FAME-1 transformed RTL design that
 * advances one target cycle per set of I/O tokens. In this software
 * reproduction, the inside of a blade is simulated event-driven for speed:
 * an EventQueue holds (cycle, callback) pairs and a blade's advance()
 * executes all events that fall inside the current token window. The
 * observable I/O timing is identical to per-cycle execution because every
 * externally visible action (a NIC flit, an MMIO response) carries an
 * explicit cycle stamp.
 */

#ifndef FIRESIM_SIM_EVENT_QUEUE_HH
#define FIRESIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace firesim
{

/**
 * A deterministic discrete-event queue over target cycles.
 *
 * Ties are broken by insertion order, so a simulation is a pure function
 * of its inputs regardless of the heap's internal layout.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current target cycle. */
    Cycles now() const { return curCycle; }

    /** Number of pending events. */
    size_t pending() const { return heap.size(); }

    /**
     * Schedule @p fn at absolute cycle @p when.
     * Scheduling in the past is a simulator bug.
     */
    void
    schedule(Cycles when, Callback fn)
    {
        if (when < curCycle)
            panic("scheduling event at %llu before now=%llu",
                  (unsigned long long)when, (unsigned long long)curCycle);
        heap.push_back(Entry{when, nextSeq++, std::move(fn)});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }

    /** Schedule @p fn @p delta cycles from now. */
    void
    scheduleIn(Cycles delta, Callback fn)
    {
        schedule(curCycle + delta, std::move(fn));
    }

    /**
     * Execute every event with timestamp strictly below @p limit, in
     * timestamp (then insertion) order, then set now() = @p limit.
     * Events are allowed to schedule further events, including inside
     * the window being drained.
     */
    void
    runUntil(Cycles limit)
    {
        FS_ASSERT(limit >= curCycle, "runUntil moving backwards");
        while (!heap.empty() && heap.front().when < limit) {
            Entry top = popEarliest();
            curCycle = top.when;
            top.fn();
        }
        curCycle = limit;
    }

    /**
     * Run events until the queue is empty or @p limit is reached.
     * @return the cycle of the last executed event, or now() if none ran.
     */
    Cycles
    drain(Cycles limit = kNoCycle)
    {
        Cycles last = curCycle;
        while (!heap.empty() && heap.front().when < limit) {
            Entry top = popEarliest();
            curCycle = top.when;
            last = top.when;
            top.fn();
        }
        if (heap.empty() && limit != kNoCycle)
            curCycle = limit;
        return last;
    }

    /** True when no events remain. */
    bool empty() const { return heap.empty(); }

    /** Cycle of the earliest pending event (kNoCycle when empty). */
    Cycles
    nextEventCycle() const
    {
        return heap.empty() ? kNoCycle : heap.front().when;
    }

    /** Total events ever scheduled (the tie-break counter). */
    uint64_t scheduledTotal() const { return nextSeq; }

    /**
     * FNV-1a hash of the pending schedule's sorted (when, seq) pairs.
     * Closures cannot be serialized, but their schedule can: two
     * queues with equal digests, equal now() and equal
     * scheduledTotal() will replay identically if the closures were
     * built by the same deterministic construction — which is what
     * comparing two runs' state images checks.
     */
    uint64_t
    scheduleDigest() const
    {
        std::vector<std::pair<Cycles, uint64_t>> sched;
        sched.reserve(heap.size());
        for (const Entry &e : heap)
            sched.emplace_back(e.when, e.seq);
        std::sort(sched.begin(), sched.end());
        uint64_t h = 0xcbf29ce484222325ULL;
        auto mix = [&h](uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        };
        for (const auto &[when, seq] : sched) {
            mix(when);
            mix(seq);
        }
        return h;
    }

  private:
    struct Entry
    {
        Cycles when;
        uint64_t seq;
        Callback fn;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    /** Move the earliest entry out of the heap. (when, seq) is a total
     *  order, so the pop order does not depend on the heap layout. */
    Entry
    popEarliest()
    {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        Entry top = std::move(heap.back());
        heap.pop_back();
        return top;
    }

    /** Min-heap on (when, seq), kept with std::push_heap/pop_heap. */
    std::vector<Entry> heap;
    Cycles curCycle = 0;
    uint64_t nextSeq = 0;
};

} // namespace firesim

#endif // FIRESIM_SIM_EVENT_QUEUE_HH
