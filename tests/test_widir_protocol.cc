/**
 * @file
 * Directed tests of the WiDir protocol transitions (Tables I and II of
 * the paper): S->W with the ToneAck census and jamming, wireless
 * updates with UpdateCount self-invalidation, W->W wired joins, W->S
 * downgrades, W->I evictions, and wireless RMWs.
 *
 * Thread bodies are free coroutine functions; the Program lambdas only
 * forward to them (so no captures end up in coroutine frames).
 */

#include <gtest/gtest.h>

#include "system/manycore.h"

namespace {

using namespace widir;
using coherence::DirState;
using coherence::L1State;
using cpu::Task;
using cpu::Thread;
using sim::Addr;
using sys::Manycore;
using sys::SystemConfig;

constexpr Addr kA = 0x200000;    // shared word under test
constexpr Addr kCnt = kA + 64;   // coordination counter (own line)

SystemConfig
smallWiDir(std::uint32_t cores = 8)
{
    return SystemConfig::widir(cores);
}

/** Threads [0, readers) read kA one after another via kCnt. */
Task
serializedReaders(Thread &t, std::uint32_t readers)
{
    if (t.id() < readers) {
        for (;;) {
            std::uint64_t v_ = co_await t.load(kCnt);
            if (v_ == t.id())
                break;
            co_await t.compute(20);
        }
        co_await t.loadNb(kA);
        co_await t.fence();
        co_await t.fetchAdd(kCnt, 1);
    }
    co_return;
}

TEST(WiDir, FourthSharerTriggersWirelessTransition)
{
    Manycore m(smallWiDir());
    m.run([](Thread &t) { return serializedReaders(t, 4); });

    // Dir_3_B with MaxWiredSharers=3: the 4th reader pushes the line
    // into the Wireless state (Table II, S->W).
    auto &home = m.dir(m.fabric().homeOf(kA));
    EXPECT_EQ(home.stateOf(kA), DirState::W);
    const auto *e = home.entryOf(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->sharerCount, 4u);
    EXPECT_FALSE(e->bcast); // never set in WiDir
    for (sim::NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(m.l1(n).stateOf(kA), L1State::W) << n;
    // kA transitions once; the coordination counter kCnt is itself a
    // hot word and may transition too.
    EXPECT_GE(m.dirTotals().toWireless, 1u);
}

TEST(WiDir, ThreeSharersStayWired)
{
    Manycore m(smallWiDir());
    m.run([](Thread &t) { return serializedReaders(t, 3); });
    auto &home = m.dir(m.fabric().homeOf(kA));
    EXPECT_EQ(home.stateOf(kA), DirState::S);
    EXPECT_EQ(m.dirTotals().toWireless, 0u);
}

/** 4 readers, then thread 0 writes; sharers see the update in place. */
Task
wirelessUpdateBody(Thread &t)
{
    if (t.id() < 4) {
        for (;;) {
            std::uint64_t v_ = co_await t.load(kCnt);
            if (v_ == t.id())
                break;
            co_await t.compute(20);
        }
        co_await t.loadNb(kA);
        co_await t.fence();
        co_await t.fetchAdd(kCnt, 1);
        if (t.id() == 0) {
            // Wait until everyone shares, then write wirelessly.
            for (;;) {
                std::uint64_t v_ = co_await t.load(kCnt);
                if (!(v_ != 4))
                    break;
                co_await t.compute(20);
            }
            co_await t.store(kA, 1234);
            co_await t.fence();
            co_await t.fetchAdd(kCnt, 1);
        } else {
            // Hold our W copy until the writer is done (local reads
            // keep UpdateCount at zero).
            for (;;) {
                std::uint64_t v_ = co_await t.load(kCnt);
                if (!(v_ != 5))
                    break;
                co_await t.compute(20);
                co_await t.loadNb(kA);
            }
        }
    }
    co_return;
}

TEST(WiDir, WirelessWriteUpdatesAllSharers)
{
    Manycore m(smallWiDir());
    m.run([](Thread &t) { return wirelessUpdateBody(t); });

    // Every surviving W sharer holds the written value locally.
    std::uint64_t v = 0;
    for (sim::NodeId n = 0; n < 4; ++n) {
        if (m.l1(n).stateOf(kA) == L1State::W) {
            ASSERT_TRUE(m.l1(n).peekWord(kA, v));
            EXPECT_EQ(v, 1234u) << "sharer " << n;
        }
    }
    // The home LLC copy was updated by observing the frame.
    auto &home = m.dir(m.fabric().homeOf(kA));
    auto *llc = home.llc().lookup(kA);
    ASSERT_NE(llc, nullptr);
    EXPECT_EQ(llc->data.word(kA), 1234u);
    EXPECT_TRUE(llc->dirty);
    EXPECT_GE(m.l1Totals().wirelessWrites, 1u);
    EXPECT_GE(m.l1Totals().updatesApplied, 1u);
}

/** After the group forms, a 5th core joins through the wired network. */
Task
wJoinBody(Thread &t)
{
    if (t.id() < 4) {
        return serializedReaders(t, 4);
    }
    return [](Thread &u) -> Task {
        if (u.id() == 4) {
            for (;;) {
                std::uint64_t v_ = co_await u.load(kCnt);
                if (!(v_ != 4))
                    break;
                co_await u.compute(20);
            }
            co_await u.loadNb(kA); // wired GetS -> WirUpgr join
            co_await u.fence();
        }
        co_return;
    }(t);
}

TEST(WiDir, LateReaderJoinsWirelessGroup)
{
    Manycore m(smallWiDir());
    m.run([](Thread &t) { return wJoinBody(t); });
    auto &home = m.dir(m.fabric().homeOf(kA));
    EXPECT_EQ(home.stateOf(kA), DirState::W);
    const auto *e = home.entryOf(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->sharerCount, 5u);
    EXPECT_EQ(m.l1(4).stateOf(kA), L1State::W);
    EXPECT_GE(m.dirTotals().wJoins, 1u);
}

/**
 * UpdateCount: a sharer that stops touching the line while others keep
 * writing self-invalidates and sends PutW (Section III-B2).
 */
Task
updateCountBody(Thread &t)
{
    if (t.id() >= 6)
        co_return;
    // 6 cores form a wireless group.
    for (;;) {
        std::uint64_t v_ = co_await t.load(kCnt);
        if (v_ == t.id())
            break;
        co_await t.compute(20);
    }
    co_await t.loadNb(kA);
    co_await t.fence();
    co_await t.fetchAdd(kCnt, 1);
    for (;;) {
        std::uint64_t v_ = co_await t.load(kCnt);
        if (!(v_ != 6))
            break;
        co_await t.compute(20);
    }
    if (t.id() == 0) {
        // Hammer the word; passive sharers should drop out after
        // updateCountThreshold updates each.
        for (int i = 0; i < 40; ++i) {
            co_await t.store(kA, static_cast<std::uint64_t>(i));
            co_await t.fence();
            co_await t.compute(50);
        }
    } else {
        // Do unrelated work; never touch kA again.
        for (int i = 0; i < 40; ++i)
            co_await t.compute(100);
    }
    co_return;
}

TEST(WiDir, IdleSharersSelfInvalidateAndLineReturnsToWired)
{
    Manycore m(smallWiDir());
    m.run([](Thread &t) { return updateCountBody(t); });

    // Passive sharers dropped out via UpdateCount...
    EXPECT_GE(m.l1Totals().selfInvalidations, 1u);
    EXPECT_GE(m.l1Totals().putWSent, 1u);
    // ...and once the count fell to MaxWiredSharers the line went back
    // to the wired protocol (Table II, W->S).
    EXPECT_GE(m.dirTotals().toShared, 1u);
    auto &home = m.dir(m.fabric().homeOf(kA));
    DirState st = home.stateOf(kA);
    EXPECT_TRUE(st == DirState::S || st == DirState::I ||
                st == DirState::EM)
        << "line still wireless: " << coherence::dirStateName(st);
}

/** Wireless RMW: 6 cores atomically increment a W-state word. */
Task
wirelessRmwBody(Thread &t)
{
    if (t.id() >= 6)
        co_return;
    for (;;) {
        std::uint64_t v_ = co_await t.load(kCnt);
        if (v_ == t.id())
            break;
        co_await t.compute(20);
    }
    co_await t.loadNb(kA);
    co_await t.fence();
    co_await t.fetchAdd(kCnt, 1);
    for (;;) {
        std::uint64_t v_ = co_await t.load(kCnt);
        if (!(v_ != 6))
            break;
        co_await t.compute(20);
    }
    // All cores increment concurrently through the wireless path.
    for (int i = 0; i < 25; ++i)
        co_await t.fetchAdd(kA, 1);
    co_return;
}

TEST(WiDir, WirelessRmwIsAtomic)
{
    Manycore m(smallWiDir());
    m.run([](Thread &t) { return wirelessRmwBody(t); });

    // Find the authoritative value wherever the line ended up.
    std::uint64_t v = 0;
    bool found = false;
    for (sim::NodeId n = 0; n < m.numCores() && !found; ++n) {
        L1State st = m.l1(n).stateOf(kA);
        if (st == L1State::M || st == L1State::E ||
            st == L1State::W) {
            ASSERT_TRUE(m.l1(n).peekWord(kA, v));
            found = true;
        }
    }
    if (!found) {
        auto *e = m.dir(m.fabric().homeOf(kA)).llc().lookup(kA);
        ASSERT_NE(e, nullptr);
        v = e->data.word(kA);
    }
    EXPECT_EQ(v, 150u); // 6 cores x 25 increments, none lost
}

/**
 * W->I: evicting the LLC line broadcasts WirInv; cached copies vanish
 * and the next access re-allocates through the wired path. With
 * @p w_frame set, core 0 notes the LLC frame holding kA before it
 * streams the lines that evict it.
 */
Task
wirInvBody(Thread &t, Manycore *m = nullptr,
           coherence::LlcFrame **w_frame = nullptr)
{
    if (t.id() < 4) {
        // Build the wireless group on kA.
        for (;;) {
            std::uint64_t v_ = co_await t.load(kCnt);
            if (v_ == t.id())
                break;
            co_await t.compute(20);
        }
        co_await t.loadNb(kA);
        co_await t.fence();
        co_await t.fetchAdd(kCnt, 1);
    }
    if (t.id() == 0) {
        for (;;) {
            std::uint64_t v_ = co_await t.load(kCnt);
            if (!(v_ != 4))
                break;
            co_await t.compute(20);
        }
        if (w_frame != nullptr)
            *w_frame = m->dir(m->fabric().homeOf(kA)).llc().lookup(kA);
        // Stream lines that map to kA's home slice and LLC set (8
        // nodes, 8-set slice: line-number stride 64, i.e. 4KB) to
        // force the W line's eviction. These hit distinct L1 sets, so
        // core 0 keeps its W copy of kA while the LLC thrashes.
        for (int i = 1; i <= 12; ++i) {
            co_await t.loadNb(kA + static_cast<Addr>(i) * 64 * 64);
            co_await t.fence();
        }
        co_await t.fetchAdd(kCnt, 1);
    }
    co_return;
}

TEST(WiDir, LlcEvictionOfWirelessLineBroadcastsWirInv)
{
    SystemConfig cfg = smallWiDir(8);
    cfg.llc.sizeBytes = 4096; // 8 sets x 8 ways per slice: easy to thrash
    Manycore m(cfg);
    m.run([](Thread &t) { return wirInvBody(t); });

    EXPECT_GE(m.dirTotals().wirInvs, 1u);
    // No cache may still hold the line in W after the WirInv.
    auto &home = m.dir(m.fabric().homeOf(kA));
    if (home.llc().lookup(kA) == nullptr) {
        for (sim::NodeId n = 0; n < 8; ++n)
            EXPECT_NE(m.l1(n).stateOf(kA), L1State::W) << n;
    }
}

// The directory entry lives in the LLC frame, so a recycled frame must
// not inherit the old line's sharers, owner or SharerCount: the frame
// that held kA's wireless group is refilled by the stream with only
// the fetch's own entry, and filling kA back into it starts from I.
TEST(WiDir, RecycledLlcFrameStartsWithCleanEntry)
{
    SystemConfig cfg = smallWiDir(8);
    cfg.llc.sizeBytes = 4096;
    Manycore m(cfg);
    coherence::LlcFrame *frame = nullptr;
    m.run([&m, &frame](Thread &t) { return wirInvBody(t, &m, &frame); });

    ASSERT_GE(m.dirTotals().wirInvs, 1u);
    auto &home = m.dir(m.fabric().homeOf(kA));
    ASSERT_NE(frame, nullptr);
    ASSERT_EQ(home.llc().lookup(kA), nullptr);
    ASSERT_TRUE(frame->valid);
    EXPECT_NE(frame->line, mem::lineAlign(kA));
    EXPECT_TRUE(frame->sharers.empty());
    EXPECT_FALSE(frame->bcast);
    EXPECT_EQ(frame->sharerCount, 0u);
    EXPECT_EQ(frame->owner,
              frame->state == DirState::EM ? 0u : sim::kNodeNone);

    // Give the frame a busy entry, then fill kA back into it.
    frame->state = DirState::W;
    frame->sharers.push_back(3);
    frame->bcast = true;
    frame->owner = 2;
    frame->sharerCount = 5;
    home.llc().fill(frame, kA, mem::LineData{});
    const coherence::DirEntry *e = home.entryOf(kA);
    ASSERT_EQ(e, frame);
    EXPECT_EQ(e->state, DirState::I);
    EXPECT_TRUE(e->sharers.empty());
    EXPECT_EQ(e->owner, sim::kNodeNone);
    EXPECT_FALSE(e->bcast);
    EXPECT_EQ(e->sharerCount, 0u);
}

/** The triggering request may be a write (GetX path of Table I). */
Task
writeTriggerBody(Thread &t)
{
    if (t.id() < 3) {
        for (;;) {
            std::uint64_t v_ = co_await t.load(kCnt);
            if (v_ == t.id())
                break;
            co_await t.compute(20);
        }
        co_await t.loadNb(kA);
        co_await t.fence();
        co_await t.fetchAdd(kCnt, 1);
    } else if (t.id() == 3) {
        for (;;) {
            std::uint64_t v_ = co_await t.load(kCnt);
            if (!(v_ != 3))
                break;
            co_await t.compute(20);
        }
        // Non-sharer write to a line with 3 sharers: triggers S->W and
        // then issues the update wirelessly (Table I, I->W case 4).
        co_await t.store(kA, 777);
        co_await t.fence();
    }
    co_return;
}

TEST(WiDir, NonSharerWriteTriggersTransitionAndWirelessUpdate)
{
    Manycore m(smallWiDir());
    m.run([](Thread &t) { return writeTriggerBody(t); });

    auto &home = m.dir(m.fabric().homeOf(kA));
    EXPECT_EQ(home.stateOf(kA), DirState::W);
    EXPECT_GE(m.l1Totals().wirelessWrites, 1u);
    // Everyone who still shares the line observed 777.
    for (sim::NodeId n = 0; n < 4; ++n) {
        if (m.l1(n).stateOf(kA) == L1State::W) {
            std::uint64_t v = 0;
            ASSERT_TRUE(m.l1(n).peekWord(kA, v));
            EXPECT_EQ(v, 777u) << n;
        }
    }
    auto *llc = home.llc().lookup(kA);
    ASSERT_NE(llc, nullptr);
    EXPECT_EQ(llc->data.word(kA), 777u);
}

/** Heavy mixed stress: all cores read/write/rmw one hot word. */
Task
hotWordStress(Thread &t)
{
    for (int i = 0; i < 30; ++i) {
        co_await t.fetchAdd(kA, 1);
        co_await t.loadNb(kA);
        co_await t.compute(t.rng().below(60));
        if (t.rng().chance(0.3)) {
            std::uint64_t v = co_await t.load(kA);
            (void)v;
        }
    }
    co_return;
}

TEST(WiDir, HotWordStressKeepsCountExact)
{
    Manycore m(smallWiDir(16));
    m.run([](Thread &t) { return hotWordStress(t); });

    std::uint64_t v = 0;
    bool found = false;
    for (sim::NodeId n = 0; n < m.numCores(); ++n) {
        L1State st = m.l1(n).stateOf(kA);
        if (st == L1State::M || st == L1State::E || st == L1State::W) {
            ASSERT_TRUE(m.l1(n).peekWord(kA, v));
            found = true;
            break;
        }
    }
    if (!found) {
        auto *e = m.dir(m.fabric().homeOf(kA)).llc().lookup(kA);
        ASSERT_NE(e, nullptr);
        v = e->data.word(kA);
    }
    EXPECT_EQ(v, 16u * 30u);
}

TEST(WiDir, SixtyFourCoreBarrierStyleSmoke)
{
    Manycore m(smallWiDir(64));
    sim::Tick cycles = m.run([](Thread &t) -> Task {
        // Barrier-ish: everyone increments, then spins until all 64
        // arrive. This is the pattern WiDir accelerates.
        co_await t.fetchAdd(kA, 1);
        for (;;) {
            std::uint64_t v_ = co_await t.load(kA);
            if (!(v_ < 64))
                break;
            co_await t.compute(10);
        }
        co_return;
    });
    EXPECT_GT(cycles, 0u);
    EXPECT_GE(m.dirTotals().toWireless, 1u);
    EXPECT_GE(m.l1Totals().wirelessWrites, 1u);
}

} // namespace
