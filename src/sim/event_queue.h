/**
 * @file
 * The discrete-event core of the simulator.
 *
 * An EventQueue holds closures ordered by (tick, insertion sequence).
 * The secondary sequence key makes execution order total and therefore
 * deterministic: two events scheduled for the same tick run in the order
 * they were scheduled.
 *
 * Host-performance layout (docs/PERF.md): protocol events are almost
 * always scheduled a handful of cycles out (L1 round trips, mesh hops,
 * wireless frame times, memory round trips), so the queue is a hybrid:
 *
 *  - a calendar wheel of kWheelSize one-tick buckets covering the
 *    near-future window [now, now + kWheelSize). Each bucket is a FIFO
 *    list threaded through one node pool that the whole wheel shares,
 *    so the wheel holds as many nodes as events were ever pending at
 *    once, not the sum of every bucket's peak. Scheduling links a node
 *    (recycled from a LIFO free list when one is free) at the bucket's
 *    tail; a 1-bit-per-bucket occupancy bitmap finds the next
 *    non-empty tick with word-wide scans.
 *  - a binary min-heap on (tick, seq) for the rare far-future events
 *    (deep exponential backoff, heavily queued memory banks).
 *
 * Both sides store sim::InlineEvent closures, so typical captures live
 * inside the queue storage instead of behind a std::function heap
 * allocation. Same-tick events may live on both sides at once; the pop
 * path breaks the tie on the sequence number, which keeps execution
 * order identical to a single totally-ordered queue (the cross-scheduler
 * determinism test in tests/test_scheduler_determinism.cc pins this).
 */

#ifndef WIDIR_SIM_EVENT_QUEUE_H
#define WIDIR_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_event.h"
#include "sim/log.h"
#include "sim/types.h"

namespace widir::sim {

/** Callback type executed when an event fires. */
using EventFn = InlineEvent;

/**
 * Priority queue of timestamped events with deterministic same-tick
 * ordering.
 */
class EventQueue
{
  public:
    /** Near-future window covered by the calendar wheel, in ticks. */
    static constexpr std::size_t kWheelSize = 1024;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return wheelCount_ + heap_.size(); }

    /** True when no events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * Scheduling in the past is a simulator bug. @p fn (a callable or
     * an EventFn) is forwarded into the queue entry, so it is built or
     * relocated once on the way in.
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        WIDIR_ASSERT(when >= now_,
                     "event scheduled in the past (%llu < %llu)",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now_));
        std::uint64_t seq = nextSeq_++;
        if (when - now_ < kWheelSize && !forceHeapForTest_) {
            std::uint32_t n = takeNode(seq, std::forward<F>(fn));
            Slot &s = slots_[when & kWheelMask];
            if (s.tail == kNil)
                s.head = n;
            else
                nodes_[s.tail].next = n;
            s.tail = n;
            occupied_[(when & kWheelMask) >> 6] |=
                std::uint64_t{1} << (when & 63);
            ++wheelCount_;
            wheelNext_ = std::min(wheelNext_, when);
        } else {
            heap_.emplace_back(when, seq, std::forward<F>(fn));
            siftUp(heap_.size() - 1);
        }
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Execute the next event (advancing time to its tick).
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        Tick next = nextEventTick();
        if (next == kTickNever)
            return false;
        EventFn fn = popAt(next);
        now_ = next;
        ++executed_;
        fn();
        return true;
    }

    /**
     * Run until the queue drains or @p limit ticks is exceeded.
     *
     * On the limit path, time advances to @p limit even though the
     * next event lies beyond it: callers that interleave run(t) with
     * schedule(delay, ...) must see now() == t, not the tick of the
     * last executed event, or the delays they compute are stale.
     *
     * @return true if the queue drained, false if the limit was hit.
     */
    bool
    run(Tick limit = kTickNever)
    {
        for (;;) {
            Tick next = nextEventTick();
            if (next == kTickNever)
                return true;
            if (next > limit) {
                now_ = std::max(now_, limit);
                return false;
            }
            EventFn fn = popAt(next);
            now_ = next;
            ++executed_;
            fn();
        }
    }

    /** Total number of events executed so far. */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Test-only hook: route every future schedule to the far-future
     * heap, bypassing the calendar wheel. The (tick, seq) order is
     * identical either way; the cross-scheduler determinism test runs
     * whole experiments in both modes and requires byte-identical
     * stats. Process-global; set it only in single-threaded tests.
     */
    static void setForceHeapForTest(bool on) { forceHeapForTest_ = on; }

    /**
     * Test-only view of the wheel's node pool: nodes ever allocated,
     * free or in use. It grows only when more events are pending on
     * the wheel than ever before.
     */
    std::size_t wheelNodesForTest() const { return nodes_.size(); }

  private:
    static constexpr Tick kWheelMask = kWheelSize - 1;
    static constexpr std::size_t kWords = kWheelSize / 64;

    /** No node: an empty list's end, or the end of the free list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One wheel event; next links its bucket's list or the free list. */
    struct Node
    {
        std::uint64_t seq;
        std::uint32_t next;
        EventFn fn;
    };

    /** One tick's events, oldest first (kNil, kNil: empty). */
    struct Slot
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

    static bool
    heapBefore(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Earliest pending tick across wheel and heap (kTickNever: none). */
    Tick
    nextEventTick() const
    {
        Tick wheel = wheelCount_ ? wheelNext_ : kTickNever;
        Tick heap = heap_.empty() ? kTickNever : heap_.front().when;
        return std::min(wheel, heap);
    }

    /**
     * Pop the lowest-(tick, seq) event at tick @p when. Same-tick
     * events can sit on both sides at once; the sequence number breaks
     * the tie exactly as a single ordered queue would.
     */
    EventFn
    popAt(Tick when)
    {
        bool from_wheel = wheelCount_ && wheelNext_ == when;
        if (from_wheel && !heap_.empty() &&
            heap_.front().when == when) {
            from_wheel = nodes_[slots_[when & kWheelMask].head].seq <
                         heap_.front().seq;
        }
        return from_wheel ? popWheel(when) : popHeap();
    }

    /** Fill a free node (or a new one) with @p fn; returns its index. */
    template <typename F>
    std::uint32_t
    takeNode(std::uint64_t seq, F &&fn)
    {
        if (freeHead_ == kNil) {
            nodes_.emplace_back(seq, kNil, std::forward<F>(fn));
            return static_cast<std::uint32_t>(nodes_.size() - 1);
        }
        std::uint32_t n = freeHead_;
        Node &node = nodes_[n];
        freeHead_ = node.next;
        node.seq = seq;
        node.next = kNil;
        // A free node's closure was moved out; build the new one in
        // its place. Assigning through a temporary adds a relocation
        // and measured slower in bench/micro_simkernel.
        std::destroy_at(&node.fn);
        std::construct_at(&node.fn, std::forward<F>(fn));
        return n;
    }

    EventFn
    popWheel(Tick when)
    {
        Slot &s = slots_[when & kWheelMask];
        std::uint32_t n = s.head;
        Node &node = nodes_[n];
        EventFn fn = std::move(node.fn);
        s.head = node.next;
        node.next = freeHead_;
        freeHead_ = n;
        --wheelCount_;
        if (s.head == kNil) {
            s.tail = kNil;
            occupied_[(when & kWheelMask) >> 6] &=
                ~(std::uint64_t{1} << (when & 63));
            wheelNext_ = wheelCount_ ? scanFrom(when) : kTickNever;
        }
        return fn;
    }

    /**
     * Find the next occupied wheel tick at or after @p from by a
     * circular scan of the occupancy bitmap. Only called with events
     * present, and all wheel events lie in [now, now + kWheelSize), so
     * the scan always terminates within one revolution.
     */
    Tick
    scanFrom(Tick from) const
    {
        std::size_t start = from & kWheelMask;
        std::size_t word = start >> 6;
        std::uint64_t bits =
            occupied_[word] & (~std::uint64_t{0} << (start & 63));
        for (std::size_t i = 0;; ++i) {
            if (bits) {
                std::size_t slot =
                    (word << 6) +
                    static_cast<std::size_t>(std::countr_zero(bits));
                return from + ((slot - start) & kWheelMask);
            }
            WIDIR_ASSERT(i <= kWords, "occupancy bitmap out of sync");
            word = (word + 1) & (kWords - 1);
            bits = occupied_[word];
        }
    }

    /** Restore heap order after appending at @p i. */
    void
    siftUp(std::size_t i)
    {
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!heapBefore(heap_[i], heap_[parent]))
                break;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    EventFn
    popHeap()
    {
        EventFn fn = std::move(heap_.front().fn);
        if (heap_.size() > 1)
            heap_.front() = std::move(heap_.back());
        heap_.pop_back();
        // Sift the relocated root down to its place.
        std::size_t i = 0;
        const std::size_t n = heap_.size();
        for (;;) {
            std::size_t left = 2 * i + 1;
            if (left >= n)
                break;
            std::size_t best = left;
            std::size_t right = left + 1;
            if (right < n && heapBefore(heap_[right], heap_[left]))
                best = right;
            if (!heapBefore(heap_[best], heap_[i]))
                break;
            std::swap(heap_[i], heap_[best]);
            i = best;
        }
        return fn;
    }

    Slot slots_[kWheelSize];
    std::vector<Node> nodes_;
    /** Head of the LIFO free list threaded through nodes_. */
    std::uint32_t freeHead_ = kNil;
    std::uint64_t occupied_[kWords] = {};
    std::size_t wheelCount_ = 0;
    /** Earliest tick with a wheel event (exact while wheelCount_ > 0). */
    Tick wheelNext_ = kTickNever;
    std::vector<HeapEntry> heap_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;

    inline static bool forceHeapForTest_ = false;
};

} // namespace widir::sim

#endif // WIDIR_SIM_EVENT_QUEUE_H
