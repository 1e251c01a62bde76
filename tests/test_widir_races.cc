/**
 * @file
 * Regression tests for the protocol races found during bring-up, each
 * reduced to a directed scenario:
 *
 *  - phantom sharers from eviction notifications arriving mid-join
 *    (PutS/PutW accounting while the line is W),
 *  - in-flight S grants crossing a BrWirUpgr census (fillAsW),
 *  - stale is-sharer flags on retried upgrades,
 *  - batched W->W joins under read bursts,
 *  - wireless write/RMW squash on WirInv and WirDwgr,
 *  - LLC recall (WirInv) with concurrent writers,
 *  - a survivor that acks the W->S downgrade and then evicts.
 */

#include <gtest/gtest.h>

#include <vector>

#include "system/checker.h"
#include "system/manycore.h"

namespace {

using namespace widir;
using coherence::DirState;
using coherence::L1State;
using coherence::Msg;
using coherence::MsgType;
using cpu::Task;
using cpu::Thread;
using sim::Addr;
using sys::Manycore;
using sys::SystemConfig;

constexpr Addr kA = 0xA00000;
constexpr Addr kCnt = kA + 64;

void
expectCoherent(Manycore &m, const char *what)
{
    auto violations = sys::checkCoherence(m);
    for (const auto &v : violations)
        ADD_FAILURE() << what << ": " << v;
}

/**
 * Regression: a sharer whose PutS crossed the S->W transition while a
 * later join transaction was in flight used to leak a phantom
 * SharerCount, deadlocking the eventual W->S downgrade. The scenario
 * needs eviction pressure; a tiny L1 plus streaming provides it.
 */
TEST(WiDirRaces, EvictionNotificationsNeverLeakSharerCount)
{
    SystemConfig cfg = SystemConfig::widir(8);
    cfg.l1.sizeBytes = 2048; // 16 sets x 2 ways: heavy eviction churn
    Manycore m(cfg);
    m.run([](Thread &t) -> Task {
        for (int round = 0; round < 12; ++round) {
            // Everyone touches the hot line...
            co_await t.loadNb(kA);
            co_await t.fetchAdd(kCnt, 1);
            // ...then streams enough lines to evict it (same L1 set).
            for (int i = 1; i <= 3; ++i) {
                co_await t.loadNb(kA + static_cast<Addr>(i) * 16 * 64);
            }
            co_await t.fence();
            co_await t.compute(t.rng().below(60));
        }
        co_return;
    });
    expectCoherent(m, "eviction churn");
    // The machine quiesced (run() would have fataled otherwise) and
    // the exact counter survived.
    Addr home_cnt = m.fabric().homeOf(kCnt);
    std::uint64_t v = 0;
    bool found = false;
    for (sim::NodeId n = 0; n < 8 && !found; ++n) {
        if (m.l1(n).stateOf(kCnt) != L1State::I)
            found = m.l1(n).peekWord(kCnt, v);
    }
    if (!found) {
        if (auto *e = m.dir(home_cnt).llc().lookup(kCnt))
            v = e->data.word(kCnt);
        else
            v = m.memory().peekLine(kCnt).word(kCnt);
    }
    EXPECT_EQ(v, 8u * 12u);
}

/**
 * A read burst from every core onto a just-shared line: the first
 * three take pointers, the fourth triggers the census, and the rest
 * join -- partly batched under one join transaction. SharerCount must
 * equal the real number of W copies afterwards.
 */
TEST(WiDirRaces, ReadBurstJoinsAreCountedExactly)
{
    Manycore m(SystemConfig::widir(16));
    m.run([](Thread &t) -> Task {
        co_await t.loadNb(kA);
        co_await t.fence();
        // Keep polling so nobody self-invalidates before the end.
        for (int i = 0; i < 6; ++i) {
            co_await t.loadNb(kA);
            co_await t.idle(20);
        }
        co_return;
    });
    expectCoherent(m, "read burst");
    auto &home = m.dir(m.fabric().homeOf(kA));
    if (home.stateOf(kA) == DirState::W) {
        std::uint32_t holders = 0;
        for (sim::NodeId n = 0; n < 16; ++n) {
            if (m.l1(n).stateOf(kA) == L1State::W)
                ++holders;
        }
        EXPECT_EQ(home.entryOf(kA)->sharerCount, holders);
        EXPECT_EQ(holders, 16u);
    }
}

/**
 * Writers keep updating a W line while the home LLC evicts it: the
 * WirInv must squash pending wireless writes, which retry through the
 * wired path and re-allocate the line; no update may be lost.
 */
TEST(WiDirRaces, WirInvSquashesAndRetriesWriters)
{
    SystemConfig cfg = SystemConfig::widir(8);
    cfg.llc.sizeBytes = 4096; // 8 sets x 8 ways per slice
    Manycore m(cfg);
    constexpr int kAdds = 10;
    m.run([](Thread &t) -> Task {
        // All cores join the hot line's group and hammer it...
        for (int i = 0; i < kAdds; ++i) {
            co_await t.fetchAdd(kA, 1);
            co_await t.compute(t.rng().below(40));
        }
        // ...while core 0 thrashes the home slice's set to force the
        // dir entry out (stride: 8 nodes x 8 sets x 64B).
        if (t.id() == 0) {
            for (int i = 1; i <= 10; ++i) {
                co_await t.loadNb(kA + static_cast<Addr>(i) * 64 * 64);
                co_await t.fence();
            }
        }
        co_return;
    });
    expectCoherent(m, "recall under write");
    std::uint64_t v = 0;
    bool found = false;
    for (sim::NodeId n = 0; n < 8 && !found; ++n) {
        L1State st = m.l1(n).stateOf(kA);
        if (st == L1State::M || st == L1State::E || st == L1State::W)
            found = m.l1(n).peekWord(kA, v);
    }
    if (!found) {
        auto &home = m.dir(m.fabric().homeOf(kA));
        if (auto *e = home.llc().lookup(kA))
            v = e->data.word(kA);
        else
            v = m.memory().peekLine(kA).word(kA);
    }
    EXPECT_EQ(v, 8u * kAdds);
}

/**
 * The W->S downgrade triggered while writers still have traffic in
 * their write buffers: squashed writes must re-issue as wired
 * upgrades and none may vanish.
 */
TEST(WiDirRaces, DowngradeDoesNotLoseWrites)
{
    Manycore m(SystemConfig::widir(8));
    m.run([](Thread &t) -> Task {
        // Form a full group.
        co_await t.loadNb(kA);
        co_await t.fence();
        // Half the cores leave by going idle (UpdateCount will drop
        // them as the others write), eventually forcing W->S while
        // stores are still flowing.
        if (t.id() < 4) {
            for (int i = 0; i < 20; ++i) {
                co_await t.fetchAdd(kA + 8, 1);
                co_await t.compute(30);
            }
        } else {
            co_await t.compute(4000);
        }
        co_return;
    });
    expectCoherent(m, "downgrade under write");
    Addr word = kA + 8;
    std::uint64_t v = 0;
    bool found = false;
    for (sim::NodeId n = 0; n < 8 && !found; ++n) {
        L1State st = m.l1(n).stateOf(word);
        if (st != L1State::I && st != L1State::S)
            found = m.l1(n).peekWord(word, v);
    }
    if (!found) {
        auto &home = m.dir(m.fabric().homeOf(word));
        if (auto *e = home.llc().lookup(word))
            v = e->data.word(word);
        else
            v = m.memory().peekLine(word).word(word);
    }
    EXPECT_EQ(v, 4u * 20u);
}

/**
 * Stale is-sharer flags: a core's upgrade races an invalidation and a
 * subsequent S->W transition. The retry must carry a fresh flag so the
 * W directory serves it rather than discarding it (the hang found in
 * bring-up).
 */
TEST(WiDirRaces, StaleSharerUpgradeEventuallyCompletes)
{
    Manycore m(SystemConfig::widir(8));
    m.run([](Thread &t) -> Task {
        // Everyone alternates reads and writes of one line with random
        // pauses; this reproduces the invalidate-then-transition
        // interleavings statistically. The proof is termination plus
        // an exact final sum.
        for (int i = 0; i < 15; ++i) {
            if (t.rng().chance(0.5)) {
                co_await t.loadNb(kA);
            } else {
                co_await t.fetchAdd(kA, 1);
            }
            co_await t.compute(t.rng().below(80));
        }
        co_await t.fence();
        co_return;
    });
    expectCoherent(m, "stale sharer");
}

/**
 * The W->S ack-then-PutS race (docs/PROTOCOL.md): during a ToShared a
 * survivor acks the WirDwgr, drops to S and evicts before the other
 * survivors' acks are in. Its PutS (which finds the entry still in W)
 * must only take it off the survivor list; counting it as one more
 * departure finished the downgrade an ack early, dropped the last
 * survivor's ack and left that survivor's S copy untracked. The
 * messages are handed to the home directly, in the racing order.
 */
TEST(WiDirRaces, AckThenPutSDuringDowngradeKeepsEverySurvivor)
{
    Manycore m(SystemConfig::widir(4));
    // Nodes 1-3 fill the three sharer pointers; node 0's read then
    // starts the census: a W group of all four nodes.
    m.run([](Thread &t) -> Task {
        co_await t.idle(t.id() == 0 ? 400 : 100 * t.id());
        co_await t.load(kA);
        co_return;
    });
    auto &home = m.dir(m.fabric().homeOf(kA));
    ASSERT_EQ(home.stateOf(kA), DirState::W);
    ASSERT_EQ(home.entryOf(kA)->sharerCount, 4u);
    auto deliver = [&](MsgType type, sim::NodeId src) {
        Msg msg;
        msg.type = type;
        msg.src = src;
        msg.dst = home.nodeId();
        msg.line = kA;
        home.receive(msg);
    };
    deliver(MsgType::PutW, 3); // count 4 -> 3: WirDwgr, expect 3 acks
    ASSERT_TRUE(home.busy(kA));
    deliver(MsgType::WirDwgrAck, 1);
    deliver(MsgType::PutS, 1); // node 1 acked, went S and evicted
    deliver(MsgType::WirDwgrAck, 2);
    EXPECT_TRUE(home.busy(kA)) << "downgrade finished an ack early";
    deliver(MsgType::WirDwgrAck, 0);
    EXPECT_FALSE(home.busy(kA));
    ASSERT_EQ(home.stateOf(kA), DirState::S);
    const auto &sharers = home.entryOf(kA)->sharers;
    EXPECT_EQ(std::vector<sim::NodeId>(sharers.begin(), sharers.end()),
              (std::vector<sim::NodeId>{2, 0}));
}

/** Two hot lines transition simultaneously: overlapping censuses. */
TEST(WiDirRaces, ConcurrentTransitionsOnDifferentLines)
{
    Manycore m(SystemConfig::widir(16));
    m.run([](Thread &t) -> Task {
        Addr line = (t.id() & 1) ? kA : kA + 128;
        co_await t.loadNb(line);
        co_await t.loadNb((t.id() & 1) ? kA + 128 : kA);
        co_await t.fence();
        for (int i = 0; i < 4; ++i) {
            co_await t.loadNb(line);
            co_await t.idle(16);
        }
        co_return;
    });
    expectCoherent(m, "concurrent censuses");
    EXPECT_GE(m.dirTotals().toWireless, 2u);
}

} // namespace
