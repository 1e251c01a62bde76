/**
 * @file
 * Unit tests for the memory substrate: address math, cache array
 * (lookup, LRU, locking, per-set blocks and per-way frames) and the
 * main-memory timing model and writeback pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "mem/address.h"
#include "mem/cache_array.h"
#include "mem/main_memory.h"
#include "sim/simulator.h"
#include "system/manycore.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using coherence::DirEntry;
using coherence::DirState;
using coherence::L1Line;
using coherence::L1State;
using mem::LineData;
using coherence::L1Array;
using coherence::L1Frame;

TEST(Address, LineMath)
{
    EXPECT_EQ(mem::lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(mem::lineNumber(0x1240), 0x49u);
    EXPECT_EQ(mem::wordInLine(0x1200), 0u);
    EXPECT_EQ(mem::wordInLine(0x1238), 7u);
    EXPECT_TRUE(mem::wordAligned(0x1238));
    EXPECT_FALSE(mem::wordAligned(0x1239));
}

TEST(Address, HomeInterleaving)
{
    // Consecutive lines round-robin across nodes.
    for (std::uint32_t n = 0; n < 64; ++n) {
        EXPECT_EQ(mem::homeNode(static_cast<sim::Addr>(n) * 64, 64), n);
    }
    EXPECT_EQ(mem::homeNode(64ull * 64, 64), 0u);
}

TEST(LineData, WordAccess)
{
    LineData d;
    EXPECT_EQ(d.word(0x40), 0u);
    d.setWord(0x48, 0xdeadbeef);
    EXPECT_EQ(d.word(0x48), 0xdeadbeefu);
    EXPECT_EQ(d.word(0x40), 0u);
    EXPECT_EQ(d.wordAt(1), 0xdeadbeefu);
}

TEST(CacheArray, GeometryFromSize)
{
    L1Array c(64 * 1024, 2); // 64KB 2-way: 512 sets
    EXPECT_EQ(c.numSets(), 512u);
    EXPECT_EQ(c.assoc(), 2u);
}

TEST(CacheArray, FillLookupInvalidate)
{
    L1Array c(1024, 2); // 8 sets
    LineData d;
    d.setWord(0, 7);
    L1Frame *v = c.pickVictim(0x0);
    ASSERT_NE(v, nullptr);
    c.fill(v, 0x0, d);
    v->state = L1State::M;
    L1Frame *e = c.lookup(0x8); // same line
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, L1State::M);
    EXPECT_EQ(e->data.word(0x0), 7u);
    c.invalidate(e);
    EXPECT_EQ(c.lookup(0x0), nullptr);
}

TEST(CacheArray, LruEvictsOldest)
{
    L1Array c(1024, 2); // 8 sets, 2 ways
    LineData d;
    // Two lines in the same set: set = lineNumber % 8.
    sim::Addr a1 = 0 * 64, a2 = 8 * 64, a3 = 16 * 64;
    c.fill(c.pickVictim(a1), a1, d);
    c.fill(c.pickVictim(a2), a2, d);
    // Touch a1 so a2 is LRU.
    c.touch(c.lookup(a1), 0);
    L1Frame *victim = c.pickVictim(a3);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->line, a2);
}

TEST(CacheArray, LockedEntriesNotVictimized)
{
    L1Array c(1024, 2);
    LineData d;
    sim::Addr a1 = 0 * 64, a2 = 8 * 64, a3 = 16 * 64;
    c.fill(c.pickVictim(a1), a1, d);
    c.fill(c.pickVictim(a2), a2, d);
    c.lookup(a1)->locked = true;
    L1Frame *victim = c.pickVictim(a3);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->line, a2);
    c.lookup(a2)->locked = true;
    EXPECT_EQ(c.pickVictim(a3), nullptr);
}

TEST(CacheArray, OccupancyAndForEach)
{
    L1Array c(1024, 2);
    LineData d;
    c.fill(c.pickVictim(0), 0, d);
    c.fill(c.pickVictim(64), 64, d);
    EXPECT_EQ(c.occupancy(), 2u);
    int seen = 0;
    c.forEach([&](L1Frame &) { ++seen; });
    EXPECT_EQ(seen, 2);
}

TEST(CacheArray, FreshArrayIsEmptyAndUninitialised)
{
    L1Array c(64 * 1024, 2);
    EXPECT_EQ(c.initialisedSets(), 0u);
    EXPECT_EQ(c.lookup(0x0), nullptr);
    EXPECT_EQ(c.lookup(0x12340), nullptr);
    EXPECT_EQ(c.occupancy(), 0u);
    int seen = 0;
    c.forEach([&](L1Frame &) { ++seen; });
    EXPECT_EQ(seen, 0);

    // Asking for a victim initialises exactly that set, and its frames
    // start invalid.
    L1Frame *v = c.pickVictim(0x12340);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->valid);
    EXPECT_EQ(c.initialisedSets(), 1u);
    EXPECT_EQ(c.occupancy(), 0u);
    EXPECT_EQ(c.lookup(0x12340), nullptr);
}

TEST(CacheArray, FramesAreAllocatedPerWayOnFirstFill)
{
    L1Array c(64 * 1024, 8); // 128 sets, 8 ways
    LineData d;
    auto same_set = [&](sim::Addr i) {
        return i * c.numSets() * mem::kLineBytes;
    };
    EXPECT_EQ(c.allocatedFrames(), 0u);

    c.fill(c.pickVictim(same_set(0)), same_set(0), d);
    EXPECT_EQ(c.allocatedFrames(), 1u);
    EXPECT_EQ(c.initialisedSets(), 1u);

    for (sim::Addr i = 1; i < 8; ++i)
        c.fill(c.pickVictim(same_set(i)), same_set(i), d);
    EXPECT_EQ(c.allocatedFrames(), 8u);
    EXPECT_EQ(c.occupancy(), 8u);

    // A freed way is reused; the full set evicts in place.
    L1Frame *e = c.lookup(same_set(3));
    ASSERT_NE(e, nullptr);
    c.invalidate(e);
    EXPECT_EQ(c.lookup(same_set(3)), nullptr);
    L1Frame *v = c.pickVictim(same_set(8));
    EXPECT_EQ(v, e);
    c.fill(v, same_set(8), d);
    EXPECT_EQ(c.lookup(same_set(8)), e);
    c.fill(c.pickVictim(same_set(9)), same_set(9), d);
    EXPECT_EQ(c.allocatedFrames(), 8u);
    EXPECT_EQ(c.occupancy(), 8u);
}

/**
 * Reference model: the cache array as it was before lazy sets and
 * per-way frames, with every frame constructed up front and frames
 * named by index.
 */
template <typename Meta>
class EagerArray
{
  public:
    using Frame = mem::CacheFrame<Meta>;
    static constexpr std::size_t kNone = ~std::size_t{0};

    EagerArray(std::uint64_t size_bytes, std::uint32_t assoc,
               std::uint64_t divisor)
        : assoc_(assoc),
          numSets_(size_bytes / (assoc * mem::kLineBytes)),
          divisor_(divisor),
          frames_(numSets_ * assoc)
    {
    }

    std::size_t
    lookup(sim::Addr addr) const
    {
        sim::Addr line = mem::lineAlign(addr);
        for (std::size_t i = begin(line); i < begin(line) + assoc_; ++i) {
            if (frames_[i].valid && frames_[i].line == line)
                return i;
        }
        return kNone;
    }

    std::size_t
    pickVictim(sim::Addr addr) const
    {
        sim::Addr line = mem::lineAlign(addr);
        std::size_t victim = kNone;
        for (std::size_t i = begin(line); i < begin(line) + assoc_; ++i) {
            const Frame &f = frames_[i];
            if (!f.valid)
                return i;
            if (f.locked)
                continue;
            if (victim == kNone || f.lruStamp < frames_[victim].lruStamp)
                victim = i;
        }
        return victim;
    }

    void
    fill(std::size_t i, sim::Addr line, const LineData &d)
    {
        Frame &f = frames_[i];
        if (f.lruStamp == 0)
            ++everFilled_;
        f = Frame{};
        f.line = mem::lineAlign(line);
        f.valid = true;
        f.data = d;
        f.lruStamp = ++lru_;
    }

    void touch(std::size_t i) { frames_[i].lruStamp = ++lru_; }

    void
    invalidate(std::size_t i)
    {
        Frame &f = frames_[i];
        static_cast<Meta &>(f) = Meta{};
        f.valid = false;
        f.line = sim::kAddrNone;
        f.dirty = false;
        f.locked = false;
    }

    Frame &at(std::size_t i) { return frames_[i]; }

    /** Frames filled at least once: what the lazy array may allocate. */
    std::size_t everFilled() const { return everFilled_; }

    /**
     * Sets whose first @p ways ways were each filled at least once:
     * with 1, the sets the lazy array gives a block; with 2, the sets
     * it grows to a full block.
     */
    std::size_t
    setsFilledTo(std::size_t ways) const
    {
        std::size_t n = 0;
        for (std::size_t set = 0; set < numSets_; ++set)
            n += frames_[set * assoc_ + ways - 1].lruStamp != 0;
        return n;
    }

    /** Valid frames in index order: what forEach must visit. */
    std::vector<const Frame *>
    valid() const
    {
        std::vector<const Frame *> out;
        for (const Frame &f : frames_) {
            if (f.valid)
                out.push_back(&f);
        }
        return out;
    }

  private:
    std::size_t
    begin(sim::Addr line) const
    {
        return ((mem::lineNumber(line) / divisor_) & (numSets_ - 1)) *
               assoc_;
    }

    std::size_t assoc_;
    std::size_t numSets_;
    std::uint64_t divisor_;
    std::vector<Frame> frames_;
    std::uint64_t lru_ = 0;
    std::size_t everFilled_ = 0;
};

/**
 * Write some of the owner's metadata from @p r on top of what the
 * frame holds: a fill that kept the previous line's metadata shows up
 * as a field the next scribble leaves alone, or as one extra sharer.
 */
void
scribble(L1Line &m, std::uint64_t r)
{
    m.state = static_cast<L1State>(1 + r % 4);
    if ((r & 8) != 0)
        m.updateCount = static_cast<std::uint8_t>(1 + (r >> 4) % 3);
}

void
scribble(DirEntry &e, std::uint64_t r)
{
    e.state = static_cast<DirState>(1 + r % 3);
    e.sharers.push_back(static_cast<sim::NodeId>((r >> 4) % 64));
    if ((r & 8) != 0)
        e.owner = static_cast<sim::NodeId>((r >> 10) % 64);
    if ((r & 16) != 0)
        e.bcast = true;
    if ((r & 32) != 0)
        e.sharerCount = static_cast<std::uint32_t>(1 + (r >> 16) % 7);
}

void
expectSameMeta(const L1Line &lazy, const L1Line &ref)
{
    EXPECT_EQ(lazy.state, ref.state);
    EXPECT_EQ(lazy.updateCount, ref.updateCount);
}

void
expectSameMeta(const DirEntry &lazy, const DirEntry &ref)
{
    EXPECT_EQ(lazy.state, ref.state);
    EXPECT_TRUE(std::equal(lazy.sharers.begin(), lazy.sharers.end(),
                           ref.sharers.begin(), ref.sharers.end()));
    EXPECT_EQ(lazy.bcast, ref.bcast);
    EXPECT_EQ(lazy.owner, ref.owner);
    EXPECT_EQ(lazy.sharerCount, ref.sharerCount);
}

template <typename Meta>
void
expectSameFrame(const mem::CacheFrame<Meta> &lazy,
                const mem::CacheFrame<Meta> &ref)
{
    EXPECT_EQ(lazy.valid, ref.valid);
    EXPECT_EQ(lazy.line, ref.line);
    expectSameMeta(lazy, ref);
    EXPECT_EQ(lazy.locked, ref.locked);
    EXPECT_EQ(lazy.lruStamp, ref.lruStamp);
    EXPECT_TRUE(lazy.data == ref.data);
}

/** How often a churn grew a one-way set, and how often its way was locked. */
struct Grows
{
    std::size_t all = 0;
    std::size_t locked = 0;
};

/**
 * Random fill/invalidate/lock/touch churn over @p lines lines, mirrored
 * into the eager reference: every lookup, victim, forEach walk and
 * occupancy must agree, only frames the reference ever filled are
 * allocated, and a set grows to a full block exactly when its second
 * way is first filled. Each fill scribbles the owner's metadata, so a
 * frame that is filled again or invalidated must come back to the
 * default Meta. The grows are counted into @p grows.
 */
template <typename Meta>
void
churnAgainstEagerReference(std::uint64_t size_bytes, std::uint32_t assoc,
                           std::uint64_t divisor, std::uint64_t lines,
                           Grows &grows)
{
    mem::CacheArray<Meta> lazy(size_bytes, assoc, divisor);
    EagerArray<Meta> ref(size_bytes, assoc, divisor);
    std::mt19937_64 rng(12345);
    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE(step);
        sim::Addr addr =
            (rng() % lines) * mem::kLineBytes + (rng() % 8) * 8;
        mem::CacheFrame<Meta> *hit = lazy.lookup(addr);
        std::size_t ref_hit = ref.lookup(addr);
        ASSERT_EQ(hit == nullptr, ref_hit == EagerArray<Meta>::kNone);
        if (hit != nullptr)
            expectSameFrame(*hit, ref.at(ref_hit));

        switch (rng() % 4) {
          case 0: { // fill on a miss, into the chosen victim
            if (hit != nullptr)
                break;
            std::size_t wide = lazy.wideSets();
            mem::CacheFrame<Meta> *victim = lazy.pickVictim(addr);
            std::size_t ref_victim = ref.pickVictim(addr);
            ASSERT_EQ(victim == nullptr,
                      ref_victim == EagerArray<Meta>::kNone);
            if (victim == nullptr)
                break;
            expectSameFrame(*victim, ref.at(ref_victim));
            if (lazy.wideSets() != wide) {
                // Growing hands out the fresh second way, beside the
                // set's one resident line, whether or not it is locked.
                ASSERT_EQ(ref_victim % assoc, 1u);
                ++grows.all;
                grows.locked += ref.at(ref_victim - 1).locked;
            }
            LineData d;
            d.setWordAt(0, static_cast<std::uint64_t>(step));
            std::uint64_t meta = rng();
            lazy.fill(victim, addr, d);
            ref.fill(ref_victim, addr, d);
            scribble(*victim, meta);
            scribble(ref.at(ref_victim), meta);
            break;
          }
          case 1:
            if (hit != nullptr) {
                lazy.invalidate(hit);
                ref.invalidate(ref_hit);
            }
            break;
          case 2:
            if (hit != nullptr) {
                hit->locked = !hit->locked;
                ref.at(ref_hit).locked = hit->locked;
            }
            break;
          case 3:
            if (hit != nullptr) {
                lazy.touch(hit, 0);
                ref.touch(ref_hit);
            }
            break;
        }

        // forEach visits the same frames in the same (frame) order.
        using Frame = mem::CacheFrame<Meta>;
        std::vector<const Frame *> want = ref.valid();
        std::vector<const Frame *> got;
        lazy.forEach([&](Frame &e) { got.push_back(&e); });
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(lazy.occupancy(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expectSameFrame(*got[i], *want[i]);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_EQ(lazy.initialisedSets(), ref.setsFilledTo(1));
    EXPECT_EQ(lazy.wideSets(), ref.setsFilledTo(2));
    EXPECT_EQ(grows.all, lazy.wideSets());
    EXPECT_EQ(lazy.allocatedFrames(), ref.everFilled());
}

/**
 * Churn the L1 frame and the LLC frame (directory entry) alike. The
 * metadata never steers replacement, so both see the same grows.
 */
Grows
churnBothFrames(std::uint64_t size_bytes, std::uint32_t assoc,
                std::uint64_t divisor, std::uint64_t lines)
{
    Grows l1, llc;
    {
        SCOPED_TRACE("L1 frame");
        churnAgainstEagerReference<L1Line>(size_bytes, assoc, divisor,
                                           lines, l1);
    }
    {
        SCOPED_TRACE("LLC frame");
        churnAgainstEagerReference<DirEntry>(size_bytes, assoc, divisor,
                                             lines, llc);
    }
    EXPECT_EQ(l1.all, llc.all);
    EXPECT_EQ(l1.locked, llc.locked);
    return l1;
}

TEST(CacheArray, LazySetsMatchEagerReferenceUnderChurn)
{
    // 16 sets x 4 ways, LLC-style index divisor; 200 lines contend.
    EXPECT_EQ(churnBothFrames(4096, 4, 3, 200).all, 16u);
    // A power-of-two divisor (the LLC's at 64 and 256 tiles) indexes
    // by shifting instead of dividing.
    churnBothFrames(4096, 4, 4, 200);
    // 256 sets x 4 ways and 300 lines: most sets keep one line for a
    // long time, so a set often meets its second line while its one
    // line is locked, and grown sets free blocks for new ones.
    Grows sparse = churnBothFrames(64 * 1024, 4, 1, 300);
    EXPECT_EQ(sparse.all, 300u - 256u);
    EXPECT_GT(sparse.locked, 0u);
}

TEST(CacheArray, LazyFramesMatchEagerReferenceInL1Shape)
{
    // 16 sets x 2 ways, no index divisor: the private L1's shape.
    churnBothFrames(2048, 2, 1, 200);
    // 64 sets x 2 ways and 80 lines: the grow boundary, locked too.
    Grows sparse = churnBothFrames(8192, 2, 1, 80);
    EXPECT_EQ(sparse.all, 80u - 64u);
    EXPECT_GT(sparse.locked, 0u);
}

TEST(CacheArray, OneWayBlockGrowsOnSecondLine)
{
    L1Array c(64 * 1024, 8); // 128 sets, 8 ways
    LineData d;
    const sim::Addr stride = c.numSets() * mem::kLineBytes;

    // A set's first line holds a one-way block.
    L1Frame *first = c.pickVictim(0);
    c.fill(first, 0, d);
    EXPECT_EQ(c.initialisedSets(), 1u);
    EXPECT_EQ(c.wideSets(), 0u);
    // Invalidating and refilling reuses the one way.
    c.invalidate(first);
    EXPECT_EQ(c.pickVictim(stride), first);
    c.fill(first, stride, d);
    EXPECT_EQ(c.wideSets(), 0u);

    // Its second line grows it; the first line's frame stays put.
    L1Frame *second = c.pickVictim(2 * stride);
    ASSERT_NE(second, nullptr);
    EXPECT_NE(second, first);
    EXPECT_FALSE(second->valid);
    EXPECT_EQ(c.wideSets(), 1u);
    c.fill(second, 2 * stride, d);
    EXPECT_EQ(c.lookup(stride), first);
    EXPECT_EQ(c.lookup(2 * stride), second);
    EXPECT_EQ(c.initialisedSets(), 1u);
    EXPECT_EQ(c.occupancy(), 2u);

    // A one-way set whose only line is locked still grows and hands
    // out a fresh frame, as the second never-used way would.
    L1Frame *pinned = c.pickVictim(mem::kLineBytes);
    c.fill(pinned, mem::kLineBytes, d);
    pinned->locked = true;
    L1Frame *fresh = c.pickVictim(mem::kLineBytes + stride);
    ASSERT_NE(fresh, nullptr);
    EXPECT_NE(fresh, pinned);
    EXPECT_FALSE(fresh->valid);
    EXPECT_EQ(c.wideSets(), 2u);
    EXPECT_EQ(c.initialisedSets(), 2u);
    EXPECT_EQ(c.lookup(mem::kLineBytes), pinned);
    EXPECT_EQ(c.allocatedFrames(), 4u);
}

TEST(CacheArray, SetBlocksFollowTouchedSets)
{
    // One set block per distinct set ever used, however many lines
    // pass through it.
    L1Array c(1024 * 8 * mem::kLineBytes, 8); // 1,024 sets, 8 ways
    ASSERT_EQ(c.numSets(), 1024u);
    LineData d;
    const sim::Addr stride = c.numSets() * mem::kLineBytes;
    for (std::size_t k : {1u, 2u, 37u, 600u, 1024u}) {
        L1Array a(1024 * 8 * mem::kLineBytes, 8);
        for (std::size_t set = 0; set < k; ++set) {
            // Spread the sets out and put ten lines through each.
            sim::Addr base = ((set * 389) % 1024) * mem::kLineBytes;
            for (sim::Addr i = 0; i < 10; ++i) {
                sim::Addr line = base + i * stride;
                a.fill(a.pickVictim(line), line, d);
            }
        }
        EXPECT_EQ(a.initialisedSets(), k);
        EXPECT_EQ(a.wideSets(), k);
        EXPECT_EQ(a.allocatedFrames(), k * 8);
        EXPECT_EQ(a.occupancy(), k * 8);
    }
    // Lookups alone never allocate a block.
    for (sim::Addr line = 0; line < 4 * stride; line += mem::kLineBytes)
        EXPECT_EQ(c.lookup(line), nullptr);
    EXPECT_EQ(c.initialisedSets(), 0u);
    // A fresh machine holds no block: FreshManycoreHasNoInitialisedSets.
}

TEST(CacheArray, FreshManycoreHasNoInitialisedSets)
{
    // Guards against sliding back to capacity-sized host state:
    // building the 256-tile machine must not give a single cache set a
    // block, allocate a frame or give any flat map an index.
    sys::Manycore m(sys::SystemConfig::widir(256));
    std::size_t sets = 0, initialised = 0, frames = 0;
    for (sim::NodeId n = 0; n < m.numCores(); ++n) {
        sets += m.l1(n).array().numSets() + m.dir(n).llc().numSets();
        initialised += m.l1(n).array().initialisedSets() +
                       m.dir(n).llc().initialisedSets();
        frames += m.l1(n).array().allocatedFrames() +
                  m.dir(n).llc().allocatedFrames();
    }
    EXPECT_EQ(sets, 256u * (512 + 1024));
    EXPECT_EQ(initialised, 0u);
    EXPECT_EQ(frames, 0u);
    EXPECT_EQ(m.hostMapRehashes(), 0u);
}

TEST(MainMemory, FunctionalPeekPoke)
{
    sim::Simulator s;
    mem::MainMemory mem(s, {});
    LineData d;
    d.setWord(0x100, 42);
    mem.pokeLine(0x100, d);
    EXPECT_EQ(mem.peekLine(0x108).word(0x100), 42u);
    EXPECT_EQ(mem.peekLine(0x200).word(0x200), 0u); // untouched: zero
}

TEST(MainMemory, TimedReadLatency)
{
    sim::Simulator s;
    mem::MainMemory::Config cfg;
    cfg.roundTripLatency = 80;
    mem::MainMemory mem(s, cfg);
    sim::Tick done_at = 0;
    mem.readLine(0x40, [&](const LineData &) { done_at = s.now(); });
    s.run();
    EXPECT_EQ(done_at, 80u);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST(MainMemory, ControllerBandwidthQueues)
{
    sim::Simulator s;
    mem::MainMemory::Config cfg;
    cfg.numControllers = 1;
    cfg.roundTripLatency = 80;
    cfg.issueInterval = 4;
    mem::MainMemory mem(s, cfg);
    std::vector<sim::Tick> done;
    for (int i = 0; i < 3; ++i) {
        mem.readLine(static_cast<sim::Addr>(i) * 64,
                     [&](const LineData &) { done.push_back(s.now()); });
    }
    s.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], 80u);
    EXPECT_EQ(done[1], 84u);
    EXPECT_EQ(done[2], 88u);
}

TEST(MainMemory, WriteThenReadBack)
{
    sim::Simulator s;
    mem::MainMemory mem(s, {});
    LineData d;
    d.setWord(0x40, 99);
    mem.writeLine(0x40, d);
    // The write stays invisible until its event fires.
    EXPECT_EQ(mem.peekLine(0x40).word(0x40), 0u);
    s.run();
    EXPECT_EQ(s.now(), 80u);
    EXPECT_EQ(mem.peekLine(0x40).word(0x40), 99u);
    EXPECT_EQ(mem.writes(), 1u);
}

TEST(MainMemory, OverlappingWritebacksPerformInOrder)
{
    // Pooled payloads: a slot freed by the first write is reused by
    // the third, and each write publishes its own data.
    sim::Simulator s;
    mem::MainMemory::Config cfg;
    cfg.numControllers = 1;
    mem::MainMemory mem(s, cfg);
    LineData a, b, c;
    a.setWord(0x40, 1);
    b.setWord(0x80, 2);
    c.setWord(0x40, 3);
    mem.writeLine(0x40, a);
    mem.writeLine(0x80, b);
    s.run(80);
    EXPECT_EQ(mem.peekLine(0x40).word(0x40), 1u);
    EXPECT_EQ(mem.peekLine(0x80).word(0x80), 0u);
    mem.writeLine(0x40, c);
    EXPECT_EQ(mem.peekLine(0x40).word(0x40), 1u);
    s.run();
    EXPECT_EQ(mem.peekLine(0x40).word(0x40), 3u);
    EXPECT_EQ(mem.peekLine(0x80).word(0x80), 2u);
}

TEST(MainMemory, WritebacksStayInline)
{
    // A writeback's 64-byte payload waits in a pool slot, so a run
    // that writes lines back never takes the event heap fallback.
    sys::Manycore m(sys::SystemConfig::baseline(16));
    workload::WorkloadParams p;
    p.scale = 1;
    std::uint64_t before = sim::InlineEvent::heapFallbacks();
    m.run(workload::makeProgram(*workload::findApp("ocean-nc"), p),
          200'000'000);
    EXPECT_GT(m.dirTotals().memWritebacks, 0u);
    EXPECT_EQ(sim::InlineEvent::heapFallbacks(), before);
}

} // namespace
