/**
 * @file
 * Unit tests for the discrete-event kernel: event ordering, time
 * advancement, RNG determinism, statistics containers.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace {

using namespace widir;

/** Scoped EventQueue::setForceHeapForTest (restores on destruction). */
struct ForceHeapGuard
{
    explicit ForceHeapGuard(bool on)
    {
        sim::EventQueue::setForceHeapForTest(on);
    }
    ~ForceHeapGuard() { sim::EventQueue::setForceHeapForTest(false); }
};

TEST(EventQueue, ExecutesInTimeOrder)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.scheduleAt(10, [&] { order.push_back(2); });
    q.scheduleAt(5, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(3); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    sim::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.scheduleAt(7, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    sim::EventQueue q;
    int fired = 0;
    q.scheduleAt(1, [&] {
        ++fired;
        q.schedule(4, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, RunLimitStopsEarly)
{
    sim::EventQueue q;
    bool late = false;
    q.scheduleAt(100, [&] { late = true; });
    EXPECT_FALSE(q.run(50));
    EXPECT_FALSE(late);
    EXPECT_TRUE(q.run(100));
    EXPECT_TRUE(late);
}

TEST(EventQueue, CountsExecutedEvents)
{
    sim::EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.scheduleAt(static_cast<sim::Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.executedEvents(), 5u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    sim::Rng a(42, 7);
    sim::Rng b(42, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsAreIndependent)
{
    sim::Rng a(42, 1);
    sim::Rng b(42, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    sim::Rng r(3, 3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    sim::Rng r(9, 1);
    for (int i = 0; i < 10000; ++i) {
        double v = r.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

TEST(Rng, RangeInclusive)
{
    sim::Rng r(5, 5);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = r.range(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        hit_lo |= (v == 3);
        hit_hi |= (v == 5);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Simulator, DerivedRngsAreStable)
{
    sim::Simulator s1(99);
    sim::Simulator s2(99);
    auto r1 = s1.makeRng(4);
    auto r2 = s2.makeRng(4);
    EXPECT_EQ(r1.next(), r2.next());
}

TEST(Stats, AverageBasics)
{
    sim::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, BinnedHistogramBins)
{
    // Fig. 5 bins: <=5, 6-10, 11-25, 26-49, 50+.
    sim::BinnedHistogram h({5, 10, 25, 49}, true);
    h.sample(0);
    h.sample(5);
    h.sample(6);
    h.sample(25);
    h.sample(26);
    h.sample(49);
    h.sample(50);
    h.sample(1000);
    ASSERT_EQ(h.bins().size(), 5u);
    EXPECT_EQ(h.bins()[0].count, 2u);
    EXPECT_EQ(h.bins()[1].count, 1u);
    EXPECT_EQ(h.bins()[2].count, 1u);
    EXPECT_EQ(h.bins()[3].count, 2u);
    EXPECT_EQ(h.bins()[4].count, 2u);
    EXPECT_EQ(h.total(), 8u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.25);
}

TEST(Stats, BinnedHistogramWeightedMean)
{
    sim::BinnedHistogram h({10}, true);
    h.sample(4, 3); // weight 3
    h.sample(10, 1);
    EXPECT_DOUBLE_EQ(h.mean(), (4.0 * 3 + 10.0) / 4.0);
}

TEST(Stats, BinnedHistogramWeightedSumSurvivesUint64Overflow)
{
    // Regression: weighted_sum_ accumulated v * weight in uint64_t.
    // Tick-scale values with merged-slice weights overflow that
    // silently -- two samples of (2^40, 2^25) already wrap 2^65 past
    // 64 bits -- corrupting mean() with no other symptom. The
    // accumulator is 128-bit now.
    sim::BinnedHistogram h({100}, true);
    const std::uint64_t v = 1ull << 40;
    const std::uint64_t w = 1ull << 25;
    h.sample(v, w);
    h.sample(v, w);
    EXPECT_EQ(h.total(), 2 * w);
    EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(v));
}

TEST(Stats, BinnedHistogramClosedTopClampIsCounted)
{
    // open_top=false: above-range samples clamp into the last bin,
    // and clamped() records how much was clamped (it used to be
    // silent). The unbinned mean still uses the true sample value.
    sim::BinnedHistogram h({5, 10}, false);
    h.sample(3);
    h.sample(11, 2); // above the last bound: clamped, weight 2
    ASSERT_EQ(h.bins().size(), 2u);
    EXPECT_EQ(h.bins()[1].count, 2u);
    EXPECT_EQ(h.clamped(), 2u);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), (3.0 + 11.0 * 2) / 3.0);

    h.reset();
    EXPECT_EQ(h.clamped(), 0u);
}

TEST(Stats, BinnedHistogramOpenTopNeverClamps)
{
    // With open_top=true the last bin spans to UINT64_MAX, so every
    // sample bins normally and the clamp path is unreachable.
    sim::BinnedHistogram h({5}, true);
    h.sample(UINT64_MAX);
    EXPECT_EQ(h.bins().back().count, 1u);
    EXPECT_EQ(h.clamped(), 0u);
}

TEST(EventQueue, RunLimitAdvancesNowToLimit)
{
    // Regression: run(limit) used to leave now() at the last executed
    // event, so callers interleaving run(t) with schedule(delay, ...)
    // computed delays from a stale "now".
    sim::EventQueue q;
    int fired = 0;
    q.scheduleAt(10, [&] { ++fired; });
    q.scheduleAt(100, [&] { ++fired; });
    EXPECT_FALSE(q.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 50u); // horizon reached, not stuck at 10

    // Delays computed from "now" land where the caller expects.
    q.schedule(25, [&] { ++fired; });
    EXPECT_FALSE(q.run(80));
    EXPECT_EQ(fired, 2); // the 50+25=75 event ran
    EXPECT_EQ(q.now(), 80u);

    // A limit at or before now() must not move time backwards.
    EXPECT_FALSE(q.run(40));
    EXPECT_EQ(q.now(), 80u);

    // Draining past the last event leaves now() at that event.
    EXPECT_TRUE(q.run());
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunLimitAdvancesEvenWithNoEligibleEvents)
{
    sim::EventQueue q;
    q.scheduleAt(1000, [] {});
    EXPECT_FALSE(q.run(1));
    EXPECT_EQ(q.now(), 1u);
    EXPECT_FALSE(q.run(999));
    EXPECT_EQ(q.now(), 999u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, SameTickFifoAcrossWheelAndHeap)
{
    // Same-tick events can sit on the wheel and the far-future heap
    // at once; the pop path must interleave them in schedule order
    // exactly as a single totally-ordered queue would.
    sim::EventQueue q;
    std::vector<int> order;
    auto rec = [&order](int i) {
        return [&order, i] { order.push_back(i); };
    };
    q.scheduleAt(50, rec(0)); // wheel
    {
        ForceHeapGuard heap_only(true);
        q.scheduleAt(50, rec(1)); // heap
    }
    q.scheduleAt(50, rec(2)); // wheel
    {
        ForceHeapGuard heap_only(true);
        q.scheduleAt(50, rec(3)); // heap
        q.scheduleAt(50, rec(4)); // heap
    }
    q.scheduleAt(50, rec(5)); // wheel
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, FarFutureEventsRunInTimeOrder)
{
    // Delays beyond the wheel window land on the heap; order across
    // the wheel/heap boundary must still be strictly by (tick, seq).
    sim::EventQueue q;
    std::vector<sim::Tick> fired;
    for (sim::Tick t : {sim::Tick{5000}, sim::Tick{3000}, sim::Tick{1},
                        sim::Tick{1023}, sim::Tick{1024},
                        sim::Tick{2047}})
        q.scheduleAt(t, [&fired, t] { fired.push_back(t); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(fired, (std::vector<sim::Tick>{1, 1023, 1024, 2047, 3000,
                                             5000}));
    EXPECT_EQ(q.now(), 5000u);
}

TEST(EventQueue, RunLimitExecutesEventExactlyAtLimit)
{
    // The limit is inclusive: an event at exactly the limit tick runs
    // in this call, and now() lands on the limit whether or not the
    // queue drained.
    sim::EventQueue q;
    int fired = 0;
    q.scheduleAt(50, [&] { ++fired; });
    EXPECT_TRUE(q.run(50)); // drained: the at-limit event ran
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 50u);

    q.scheduleAt(60, [&] { ++fired; });
    q.scheduleAt(61, [&] { ++fired; });
    EXPECT_FALSE(q.run(60)); // at-limit event runs, later one stays
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 60u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, WheelRevolutionBoundaryEvent)
{
    // An event at now + kWheelSize - 1 sits in the last bucket the
    // wheel currently covers -- one tick further and it would go to
    // the heap. Popping it after the wheel sweeps a full revolution
    // (minus one) of empty buckets exercises the occupancy-bitmap
    // wraparound at the window edge.
    sim::EventQueue q;
    q.scheduleAt(0, [] {}); // pin now_ to 0 explicitly
    EXPECT_TRUE(q.run());
    constexpr sim::Tick kEdge = sim::EventQueue::kWheelSize - 1;
    bool edge_fired = false;
    q.scheduleAt(kEdge, [&] { edge_fired = true; });
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_TRUE(q.run());
    EXPECT_TRUE(edge_fired);
    EXPECT_EQ(q.now(), kEdge);

    // Same edge relative to a non-zero now, with a same-tick heap
    // companion: the (tick, seq) interleave must hold at the window
    // edge too.
    std::vector<int> order;
    q.scheduleAt(q.now() + sim::EventQueue::kWheelSize - 1,
                 [&] { order.push_back(0); });
    {
        ForceHeapGuard heap_only(true);
        q.scheduleAt(q.now() + sim::EventQueue::kWheelSize - 1,
                     [&] { order.push_back(1); });
    }
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, WheelSlotsReusedAcrossRevolutions)
{
    // A self-rescheduling event walks the wheel through several full
    // revolutions; each slot must come back clean for its next tick.
    sim::EventQueue q;
    constexpr sim::Tick kStep = 1023; // slides one slot per revolution
    constexpr int kHops = 5000;       // ~5 revolutions of 1024 slots
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < kHops)
            q.schedule(kStep, [&chain] { chain(); });
    };
    q.schedule(kStep, [&chain] { chain(); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(fired, kHops);
    EXPECT_EQ(q.now(), static_cast<sim::Tick>(kStep) * kHops);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RecycledNodesKeepSameTickFifo)
{
    // Wheel nodes return to a LIFO free list, so a bucket's list
    // threads through recycled nodes in no particular index order.
    // Same-tick events must still run in schedule order, including
    // one appended to the bucket that is being drained.
    sim::EventQueue q;
    std::vector<int> order;
    auto rec = [&order](int i) {
        return [&order, i] { order.push_back(i); };
    };
    for (int i = 0; i < 8; ++i)
        q.scheduleAt(1, rec(i));
    EXPECT_TRUE(q.run());
    const std::size_t pool = q.wheelNodesForTest();
    EXPECT_EQ(pool, 8u);

    order.clear();
    for (int i = 0; i < 8; ++i)
        q.scheduleAt(3 - i % 2, rec(i)); // ticks 3, 2, 3, 2, ...
    q.scheduleAt(2, [&] {
        order.push_back(8);
        q.schedule(0, rec(9)); // same tick, behind 1..7
    });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order,
              (std::vector<int>{1, 3, 5, 7, 8, 9, 0, 2, 4, 6}));
    EXPECT_EQ(q.wheelNodesForTest(), 9u); // peak pending: 8 + 1
}

TEST(EventQueue, SameTickWheelHeapInterleaveAfterRecycling)
{
    // The (tick, seq) tie-break reads the wheel side's head node; with
    // recycled nodes that head is no longer the lowest index.
    sim::EventQueue q;
    for (int i = 0; i < 6; ++i)
        q.scheduleAt(10 + i, [] {});
    EXPECT_TRUE(q.run());

    std::vector<int> order;
    auto rec = [&order](int i) {
        return [&order, i] { order.push_back(i); };
    };
    q.scheduleAt(50, rec(0)); // wheel
    {
        ForceHeapGuard heap_only(true);
        q.scheduleAt(50, rec(1)); // heap
    }
    q.scheduleAt(40, rec(2)); // wheel, earlier tick
    q.scheduleAt(50, rec(3)); // wheel
    {
        ForceHeapGuard heap_only(true);
        q.scheduleAt(50, rec(4)); // heap
    }
    q.scheduleAt(50, rec(5)); // wheel
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3, 4, 5}));
    EXPECT_EQ(q.wheelNodesForTest(), 6u);
}

TEST(EventQueue, WheelNodePoolBoundedByPeakPending)
{
    // The wheel holds as many nodes as events were ever pending on it
    // at once: a 10K burst into one tick leaves 10K nodes, and a chain
    // that keeps one event pending while it walks every bucket for
    // five revolutions reuses them instead of growing the pool.
    sim::EventQueue q;
    constexpr std::size_t kBurst = 10000;
    std::size_t ran = 0;
    for (std::size_t i = 0; i < kBurst; ++i)
        q.scheduleAt(7, [&ran] { ++ran; });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(ran, kBurst);
    EXPECT_EQ(q.wheelNodesForTest(), kBurst);

    constexpr sim::Tick kStep = 1023; // slides one slot per revolution
    constexpr int kHops = 5 * 1024;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < kHops)
            q.schedule(kStep, [&chain] { chain(); });
    };
    q.schedule(kStep, [&chain] { chain(); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(fired, kHops);
    EXPECT_EQ(q.wheelNodesForTest(), kBurst);
}

using EventQueueDeathTest = ::testing::Test;

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    sim::EventQueue q;
    q.scheduleAt(10, [] {});
    EXPECT_TRUE(q.run());
    ASSERT_EQ(q.now(), 10u);
    EXPECT_DEATH(q.scheduleAt(5, [] {}), "scheduled in the past");
}

TEST(InlineEvent, SmallCapturesStayInline)
{
    std::uint64_t before = sim::InlineEvent::heapFallbacks();
    std::array<std::uint64_t, 5> payload{1, 2, 3, 4, 5}; // 40 bytes
    std::uint64_t sum = 0;
    auto fn = [payload, &sum] {
        for (auto v : payload)
            sum += v;
    };
    static_assert(sim::InlineEvent::fitsInline<decltype(fn)>());
    sim::InlineEvent ev(fn);
    EXPECT_TRUE(ev.isInline());
    EXPECT_TRUE(static_cast<bool>(ev));
    ev();
    EXPECT_EQ(sum, 15u);
    EXPECT_EQ(sim::InlineEvent::heapFallbacks(), before);
}

TEST(InlineEvent, OversizedCapturesFallBackToHeap)
{
    std::array<std::uint64_t, 8> payload{}; // 64 bytes: over budget
    payload[7] = 99;
    std::uint64_t got = 0;
    auto fn = [payload, &got] { got = payload[7]; };
    static_assert(!sim::InlineEvent::fitsInline<decltype(fn)>());
    std::uint64_t before = sim::InlineEvent::heapFallbacks();
    sim::InlineEvent ev(fn);
    EXPECT_EQ(sim::InlineEvent::heapFallbacks(), before + 1);
    EXPECT_FALSE(ev.isInline());
    ev();
    EXPECT_EQ(got, 99u);
}

TEST(InlineEvent, MoveTransfersAndDestroysExactlyOnce)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> alive = token;
    {
        sim::InlineEvent a([token] { (void)*token; });
        token.reset();
        EXPECT_FALSE(alive.expired()); // capture keeps it alive

        sim::InlineEvent b(std::move(a));
        EXPECT_FALSE(static_cast<bool>(a)); // moved-from is empty
        EXPECT_TRUE(static_cast<bool>(b));
        EXPECT_FALSE(alive.expired());

        sim::InlineEvent c;
        c = std::move(b);
        EXPECT_FALSE(static_cast<bool>(b));
        EXPECT_FALSE(alive.expired());
        c();
    }
    EXPECT_TRUE(alive.expired()); // destructor released the capture
}

TEST(InlineEvent, RelocationKeepsCaptures)
{
    // A trivially copyable capture relocates by memcpy, a shared_ptr
    // capture through its move constructor; both must arrive intact
    // through the queue (wheel and far-future heap alike), and the
    // shared_ptr capture must be released once the event has run.
    struct Scalars
    {
        std::uint64_t a, b, c;
        std::uint32_t d;
    };
    sim::Simulator s(1);
    std::uint64_t sum = 0;
    Scalars sc{1, 20, 300, 4000};
    auto trivial = [&sum, sc] { sum += sc.a + sc.b + sc.c + sc.d; };
    static_assert(std::is_trivially_copyable_v<decltype(trivial)>);
    static_assert(sim::InlineEvent::fitsInline<decltype(trivial)>());

    auto token = std::make_shared<std::uint64_t>(50000);
    auto owning = [&sum, &token] { return [&sum, token] { sum += *token; }; };
    static_assert(!std::is_trivially_copyable_v<decltype(owning())>);

    s.schedule(3, trivial);
    s.schedule(5, owning());
    s.schedule(sim::EventQueue::kWheelSize * 2, trivial);
    s.schedule(sim::EventQueue::kWheelSize * 2 + 1, owning());
    // A moved-in EventFn is forwarded, not copied.
    sim::EventFn ev(owning());
    s.scheduleAt(7, std::move(ev));
    EXPECT_FALSE(static_cast<bool>(ev));
    // Grow one wheel slot's vector so queued events relocate again.
    for (int i = 0; i < 64; ++i)
        s.schedule(5, trivial);
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_TRUE(s.run());
    EXPECT_EQ(sum, 66 * 4321u + 3 * 50000u);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineEvent, QueueHotPathTakesNoHeapFallback)
{
    // The acceptance criterion for the hot path: scheduling typical
    // protocol-shaped closures through scheduleInline never allocates.
    sim::Simulator s(1);
    std::uint64_t before = sim::InlineEvent::heapFallbacks();
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        std::uint64_t a = i, b = i * 2, c = i * 3;
        s.scheduleInline(i % 97, [&sum, a, b, c] { sum += a + b + c; });
    }
    EXPECT_TRUE(s.run());
    EXPECT_EQ(sim::InlineEvent::heapFallbacks(), before);
    EXPECT_EQ(s.queue().executedEvents(), 1000u);
}

} // namespace
