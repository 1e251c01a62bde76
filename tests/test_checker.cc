/**
 * @file
 * Negative tests for sys::checkCoherence: corrupt a quiesced Manycore
 * through the test back-doors (L1 CacheArray fill, directory
 * mutableEntryForTest, LLC data mutation) and assert the checker
 * reports each invariant class. A checker that only ever sees healthy
 * machines is untested; these prove it actually fires.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "system/checker.h"
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

constexpr Addr kA = 0x100000;
constexpr Addr kFlag = 0x200040; // different line (and different home)

bool
anyContains(const std::vector<std::string> &violations, const char *needle)
{
    return std::any_of(violations.begin(), violations.end(),
                       [&](const std::string &v) {
                           return v.find(needle) != std::string::npos;
                       });
}

std::string
joined(const std::vector<std::string> &violations)
{
    std::string out;
    for (const auto &v : violations)
        out += v + "\n";
    return out;
}

/** core 0 writes kA; cores 1..2 read it afterwards (S-shared at rest). */
Task
sharedReaders(Thread &t)
{
    if (t.id() == 0) {
        co_await t.store(kA, 0xabcdu);
        co_await t.fence();
        co_await t.fetchAdd(kFlag, 1);
        co_await t.fence();
    } else if (t.id() <= 2) {
        for (;;) {
            if (co_await t.load(kFlag) >= 1)
                break;
            co_await t.compute(20);
        }
        std::uint64_t v = co_await t.load(kA);
        EXPECT_EQ(v, 0xabcdu);
    }
    co_return;
}

TEST(Checker, CleanMachinePassesAllInvariants)
{
    Manycore m(SystemConfig::widir(4));
    m.run(sharedReaders);
    std::vector<std::string> v = sys::checkCoherence(m);
    EXPECT_TRUE(v.empty()) << joined(v);
}

// Invariant class 1: single-writer / multiple-reader. Forge a second
// M copy behind the directory's back and the checker must flag it.
TEST(Checker, DetectsForgedSecondModifiedCopy)
{
    Manycore m(SystemConfig::widir(4));
    m.run([](Thread &t) -> Task {
        if (t.id() == 0) {
            co_await t.store(kA, 7);
            co_await t.fence();
        }
        co_return;
    });
    ASSERT_EQ(m.l1(0).stateOf(kA), L1State::M);
    ASSERT_TRUE(sys::checkCoherence(m).empty());

    // Node 2 never touched kA; plant a fake dirty-M copy there.
    coherence::L1Array &arr = m.l1(2).array();
    coherence::L1Frame *frame = arr.pickVictim(kA);
    ASSERT_NE(frame, nullptr);
    mem::LineData forged;
    forged.setWord(kA, 99);
    arr.fill(frame, kA, forged);
    frame->state = L1State::M;

    std::vector<std::string> v = sys::checkCoherence(m);
    EXPECT_TRUE(anyContains(v, "SWMR violated")) << joined(v);
}

// Invariant class 2: the W-state census. Decrement the directory's
// SharerCount below the number of live wireless copies.
TEST(Checker, DetectsUndercountedWirelessSharerCount)
{
    SystemConfig cfg = SystemConfig::widir(4);
    cfg.protocol.maxWiredSharers = 1; // 2 sharers force the W upgrade
    Manycore m(cfg);
    m.run([](Thread &t) -> Task {
        if (t.id() == 1 || t.id() == 2) {
            co_await t.load(kA);
            co_await t.fence();
            co_await t.fetchAdd(kFlag, 1);
            co_await t.fence();
        } else if (t.id() == 0) {
            for (;;) {
                if (co_await t.load(kFlag) >= 2)
                    break;
                co_await t.compute(20);
            }
            // Two wired sharers > maxWiredSharers: this store runs the
            // census and moves the line to W.
            co_await t.store(kA, 5);
            co_await t.fence();
        }
        co_return;
    });
    sim::NodeId home = m.fabric().homeOf(kA);
    ASSERT_EQ(m.dir(home).stateOf(kA), DirState::W);
    ASSERT_TRUE(sys::checkCoherence(m).empty());

    coherence::DirEntry &e = m.dir(home).mutableEntryForTest(mem::lineAlign(kA));
    ASSERT_GT(e.sharerCount, 0u);
    e.sharerCount -= 1;

    std::vector<std::string> v = sys::checkCoherence(m);
    EXPECT_TRUE(anyContains(v, "SharerCount")) << joined(v);
}

// Invariant class 3: value coherence. Corrupt the LLC's copy of an
// S-shared line so it no longer matches the L1 copies (or memory).
TEST(Checker, DetectsStaleLlcData)
{
    Manycore m(SystemConfig::widir(4));
    m.run(sharedReaders);
    ASSERT_TRUE(sys::checkCoherence(m).empty());

    sim::NodeId home = m.fabric().homeOf(kA);
    coherence::LlcFrame *llcLine = m.dir(home).llc().lookup(kA);
    ASSERT_NE(llcLine, nullptr);
    llcLine->data.setWord(kA, 0xdeadu);

    std::vector<std::string> v = sys::checkCoherence(m);
    EXPECT_TRUE(anyContains(v, "differs from LLC")) << joined(v);
}

// Bonus corruption: flip the directory entry to I while copies remain
// cached -- the "directory says I" arm of the state cross-check.
TEST(Checker, DetectsDirectoryStateDroppedToInvalid)
{
    Manycore m(SystemConfig::widir(4));
    m.run(sharedReaders);
    ASSERT_TRUE(sys::checkCoherence(m).empty());

    sim::NodeId home = m.fabric().homeOf(kA);
    coherence::DirEntry &e = m.dir(home).mutableEntryForTest(mem::lineAlign(kA));
    ASSERT_NE(e.state, DirState::I);
    e.state = DirState::I;

    std::vector<std::string> v = sys::checkCoherence(m);
    EXPECT_TRUE(anyContains(v, "directory says I")) << joined(v);
}

// Complaint order: copies of one line are checked in node order. Plant
// S copies of a fresh line at three nodes, give its home an S entry
// with no pointers and a different LLC value, and the per-copy
// complaints must name the nodes in ascending order. Each node also
// caches lines of its own, so the gathered copies are many more than
// a sort handles by insertion.
TEST(Checker, ForgedSharersAreReportedInNodeOrder)
{
    constexpr Addr kB = 0x180000;
    Manycore m(SystemConfig::widir(4));
    m.run([](Thread &t) -> Task {
        for (Addr i = 0; i < 24; ++i)
            co_await t.load(0x300000 + t.id() * 0x10000 + i * 0x40);
        co_await t.fence();
        co_return;
    });
    ASSERT_TRUE(sys::checkCoherence(m).empty());

    mem::LineData held;
    held.setWord(kB, 99);
    for (sim::NodeId n : {3u, 1u, 2u}) {
        coherence::L1Array &arr = m.l1(n).array();
        coherence::L1Frame *frame = arr.pickVictim(kB);
        ASSERT_NE(frame, nullptr);
        arr.fill(frame, kB, held);
        frame->state = L1State::S;
    }
    sim::NodeId home = m.fabric().homeOf(kB);
    coherence::LlcArray &llc = m.dir(home).llc();
    coherence::LlcFrame *frame = llc.pickVictim(kB);
    ASSERT_NE(frame, nullptr);
    llc.fill(frame, kB, mem::LineData{});
    m.dir(home).mutableEntryForTest(kB).state = DirState::S;

    std::vector<std::string> v = sys::checkCoherence(m);
    const std::vector<std::string> want = {
        "line 0x180000: sharer 1 missing from directory pointers",
        "line 0x180000: sharer 2 missing from directory pointers",
        "line 0x180000: sharer 3 missing from directory pointers",
        "line 0x180000: S copy at 1 differs from LLC",
        "line 0x180000: S copy at 2 differs from LLC",
        "line 0x180000: S copy at 3 differs from LLC",
    };
    EXPECT_EQ(v, want) << joined(v);
}

// The directory entry lives in the LLC frame, so the back door reaches
// only lines the LLC holds: any other line has no entry to corrupt.
TEST(CheckerDeathTest, MutableEntryNeedsAnLlcLine)
{
    constexpr Addr kNever = 0x700000;
    Manycore m(SystemConfig::widir(4));
    m.run(sharedReaders);
    sim::NodeId home = m.fabric().homeOf(kNever);
    ASSERT_EQ(m.dir(home).llc().lookup(kNever), nullptr);
    EXPECT_DEATH(m.dir(home).mutableEntryForTest(kNever),
                 "not in the LLC");
}

} // namespace
