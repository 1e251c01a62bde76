/**
 * @file
 * Container semantics for the flat hot-state layouts: FlatAddrMap
 * insert/erase/backshift churn against a std::unordered_map reference,
 * iteration determinism and reference stability, and the SharerPtrs /
 * SharerBits fixed-width sharer sets (census popcount, the Dir3B
 * pointer-overflow edge, full 1024-bit width).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sharer_set.h"
#include "mem/flat_addr_map.h"
#include "sim/rng.h"

namespace {

using namespace widir;
using coherence::SharerBits;
using coherence::SharerPtrs;
using mem::Addr;
using mem::FlatAddrMap;

struct Payload
{
    std::uint64_t tag = 0;
    std::vector<std::uint32_t> body;
};

/** Sorted (key, tag) dump, the canonical content snapshot. */
template <typename Map>
std::vector<std::pair<Addr, std::uint64_t>>
dump(const Map &m)
{
    std::vector<std::pair<Addr, std::uint64_t>> out;
    for (auto it = m.begin(); it != m.end(); ++it)
        out.emplace_back(it->first, it->second.tag);
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Random insert/erase/lookup churn, mirrored into an unordered_map.
 * High turnover at a bounded key range keeps the load factor near the
 * limit and exercises the backward-shift erase on long probe chains.
 */
TEST(FlatAddrMap, ChurnMatchesUnorderedMapReference)
{
    FlatAddrMap<Payload> flat;
    std::unordered_map<Addr, Payload> ref;
    sim::Rng rng(123, 0);

    std::uint64_t next_tag = 1;
    for (int step = 0; step < 200000; ++step) {
        // Line-address-shaped keys from a small range force reuse.
        Addr key = static_cast<Addr>(rng.below(4096)) << 6;
        switch (rng.below(4)) {
          case 0:
          case 1: { // insert (first wins, like try_emplace)
            auto [fit, finserted] = flat.try_emplace(key);
            auto [rit, rinserted] = ref.try_emplace(key);
            ASSERT_EQ(finserted, rinserted);
            if (finserted) {
                fit->second.tag = next_tag;
                rit->second.tag = next_tag;
                ++next_tag;
            } else {
                ASSERT_EQ(fit->second.tag, rit->second.tag);
            }
            break;
          }
          case 2: { // erase
            ASSERT_EQ(flat.erase(key), ref.erase(key));
            break;
          }
          case 3: { // lookup
            auto fit = flat.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(fit == flat.end(), rit == ref.end());
            if (fit != flat.end()) {
                ASSERT_EQ(fit->second.tag, rit->second.tag);
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }
    EXPECT_EQ(dump(flat), dump(ref));

    // Drain through the flat map's own iteration.
    while (!ref.empty()) {
        Addr key = ref.begin()->first;
        ASSERT_EQ(flat.erase(key), 1u);
        ref.erase(key);
    }
    EXPECT_TRUE(flat.empty());
    EXPECT_EQ(flat.begin(), flat.end());
}

/** Two maps fed the same operations iterate in the same order. */
TEST(FlatAddrMap, IterationIsDeterministic)
{
    auto build = [] {
        FlatAddrMap<Payload> m;
        sim::Rng rng(7, 1);
        for (int i = 0; i < 5000; ++i) {
            Addr key = static_cast<Addr>(rng.below(2048)) << 6;
            if (rng.below(3) == 0)
                m.erase(key);
            else
                m[key].tag = key + 1;
        }
        return m;
    };
    FlatAddrMap<Payload> a = build();
    FlatAddrMap<Payload> b = build();
    auto ait = a.begin();
    auto bit = b.begin();
    for (; ait != a.end(); ++ait, ++bit) {
        ASSERT_NE(bit, b.end());
        EXPECT_EQ(ait->first, bit->first);
        EXPECT_EQ(ait->second.tag, bit->second.tag);
    }
    EXPECT_EQ(bit, b.end());
}

/**
 * Values never move: references stay valid across inserts (rehash),
 * other erases, and slot recycling -- the controllers hold DirEntry&
 * across map mutations exactly like with std::unordered_map.
 */
TEST(FlatAddrMap, ReferencesSurviveRehashAndErase)
{
    FlatAddrMap<Payload> m;
    Payload &first = m[0x100000];
    first.tag = 42;
    first.body = {1, 2, 3};
    for (Addr k = 1; k < 1000; ++k)
        m[k << 6].tag = k; // forces several index rehashes
    m.erase(0x2000);
    EXPECT_EQ(first.tag, 42u);
    EXPECT_EQ(first.body, (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(&m.find(0x100000)->second, &first);
}

/**
 * The index starts empty and doubles at 3/4 load, so n entries cost
 * O(log n) growth steps, and churn below the high-water mark none.
 */
TEST(FlatAddrMap, GrowthIsGeometric)
{
    FlatAddrMap<Payload> m;
    EXPECT_EQ(m.rehashes(), 0u);
    for (Addr k = 0; k < 1024; ++k)
        m[k << 6].tag = k;
    EXPECT_EQ(m.rehashes(), 8u); // 16 -> 32 -> ... -> 2048 slots
    for (Addr k = 0; k < 1024; k += 2)
        m.erase(k << 6);
    for (Addr k = 0; k < 1024; k += 2)
        m[k << 6].tag = k;
    EXPECT_EQ(m.rehashes(), 8u);
    EXPECT_EQ(m.size(), 1024u);
}

/**
 * The value slab grows in chunks of 16, 32, 64 and 128 slots before
 * the fixed 256-slot chunks, so a small map value-initialises 16
 * slots, and values never move as chunks are added.
 */
TEST(FlatAddrMap, SlabGrowsFromSixteen)
{
    FlatAddrMap<std::string> m;
    EXPECT_EQ(m.slabSlots(), 0u);
    m[0x40] = "first";
    EXPECT_EQ(m.slabSlots(), 16u);

    // Slots handed out before each chunk boundary: the last slot of
    // chunks 16/32/64/128/256 and the first slot of the next.
    const std::vector<std::size_t> boundaries = {15, 16, 47, 48, 111,
                                                 112, 239, 240, 495, 496};
    std::vector<std::pair<Addr, std::string *>> held;
    for (std::size_t i = 1; i < 1000; ++i) {
        Addr key = static_cast<Addr>(i + 1) << 6;
        std::string &v = m[key];
        v = "value-" + std::to_string(i) +
            std::string(40, 'x'); // past the small-string buffer
        if (std::find(boundaries.begin(), boundaries.end(), i) !=
            boundaries.end())
            held.emplace_back(key, &v);
    }
    EXPECT_EQ(m.size(), 1000u);
    EXPECT_EQ(m.slabSlots(), 240u + 3 * 256u); // 1,008 <= 1,256
    ASSERT_EQ(held.size(), boundaries.size());
    for (std::size_t j = 0; j < held.size(); ++j) {
        EXPECT_EQ(&m.find(held[j].first)->second, held[j].second);
        EXPECT_EQ(*held[j].second,
                  "value-" + std::to_string(boundaries[j]) +
                      std::string(40, 'x'));
    }
    EXPECT_EQ(m.find(0x40)->second, "first");

    // Every value reads back through its slot after all the growth.
    for (std::size_t i = 1; i < 1000; ++i) {
        auto it = m.find(static_cast<Addr>(i + 1) << 6);
        ASSERT_NE(it, m.end());
        EXPECT_EQ(it->second.substr(0, 6 + std::to_string(i).size()),
                  "value-" + std::to_string(i));
    }

    // Erasing and refilling below the high-water mark adds no slots.
    for (std::size_t i = 1; i < 1000; i += 3)
        m.erase(static_cast<Addr>(i + 1) << 6);
    for (std::size_t i = 1; i < 1000; i += 3)
        m[static_cast<Addr>(i + 1) << 6] = "again";
    EXPECT_EQ(m.slabSlots(), 240u + 3 * 256u);
}

/** Recycled slots hand back a freshly-constructed value. */
TEST(FlatAddrMap, RecycledSlotsAreFresh)
{
    FlatAddrMap<Payload> m;
    m[0x40].tag = 9;
    m.find(0x40)->second.body = {7, 7, 7};
    m.erase(0x40);
    Payload &again = m[0x40]; // reuses the freed slab slot
    EXPECT_EQ(again.tag, 0u);
    EXPECT_TRUE(again.body.empty());
}

TEST(SharerPtrs, PreservesVectorOrderSemantics)
{
    SharerPtrs s;
    std::vector<sim::NodeId> ref;
    // 1023 is the widest machine's last node: ids are stored in 16 bits.
    for (sim::NodeId n : {5u, 1023u, 63u, 1u, 17u, 40u}) {
        s.push_back(n);
        ref.push_back(n);
    }
    EXPECT_TRUE(std::equal(s.begin(), s.end(), ref.begin(), ref.end()));
    EXPECT_TRUE(s.contains(1023u));

    // remove-by-value shifts left, like std::vector::erase; removing
    // an absent id changes nothing.
    EXPECT_TRUE(s.contains(1u));
    s.remove(1u);
    ref.erase(std::find(ref.begin(), ref.end(), 1u));
    EXPECT_TRUE(std::equal(s.begin(), s.end(), ref.begin(), ref.end()));
    EXPECT_FALSE(s.contains(1u));
    s.remove(1u);
    EXPECT_TRUE(std::equal(s.begin(), s.end(), ref.begin(), ref.end()));

    SharerPtrs copy = s; // finishToShared: entry.sharers = txn->ackIds
    EXPECT_TRUE(
        std::equal(copy.begin(), copy.end(), s.begin(), s.end()));
    s.remove(1023u);
    ref.erase(std::find(ref.begin(), ref.end(), 1023u));
    EXPECT_TRUE(std::equal(s.begin(), s.end(), ref.begin(), ref.end()));
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(copy.size(), 5u);
    EXPECT_EQ(copy.begin()[1], 1023u);
}

/**
 * The Dir3B overflow edge: the directory adds precise pointers only
 * while size() < dirPointers and flips the bcast bit on the request
 * that would exceed them. The container must hold exactly dirPointers
 * entries at the decision point for every configured width.
 */
TEST(SharerPtrs, Dir3BOverflowEdge)
{
    for (std::uint32_t dir_pointers : {3u, 5u, 8u}) {
        SharerPtrs s;
        bool bcast = false;
        for (sim::NodeId n = 0; n < 10; ++n) {
            if (s.size() < dir_pointers)
                s.push_back(n); // precise pointer
            else
                bcast = true; // Dir3B overflow
        }
        EXPECT_TRUE(bcast);
        EXPECT_EQ(s.size(), dir_pointers);
    }
}

TEST(SharerBits, CensusPopcountAndOrder)
{
    SharerBits bits;
    EXPECT_TRUE(bits.none());
    std::vector<sim::NodeId> nodes = {0, 1, 63, 64, 65, 500, 1023};
    for (sim::NodeId n : nodes)
        bits.set(n);
    EXPECT_EQ(bits.count(), nodes.size());
    for (sim::NodeId n : nodes)
        EXPECT_TRUE(bits.test(n));
    EXPECT_FALSE(bits.test(2));
    EXPECT_FALSE(bits.test(512));

    // forEachSet visits in ascending node order (the broadcast order).
    std::vector<sim::NodeId> seen;
    bits.forEachSet([&](sim::NodeId n) { seen.push_back(n); });
    EXPECT_EQ(seen, nodes);

    bits.reset(64);
    EXPECT_FALSE(bits.test(64));
    EXPECT_EQ(bits.count(), nodes.size() - 1);
    bits.clear();
    EXPECT_TRUE(bits.none());
}

/** Full 1024-bit width: a whole 32x32 machine fits and counts. */
TEST(SharerBits, FullWidth1024)
{
    SharerBits bits;
    for (sim::NodeId n = 0; n < SharerBits::kMaxNodes; ++n)
        bits.set(n);
    EXPECT_EQ(bits.count(), SharerBits::kMaxNodes);
    std::uint32_t visits = 0;
    sim::NodeId prev = 0;
    bits.forEachSet([&](sim::NodeId n) {
        if (visits) {
            EXPECT_EQ(n, prev + 1);
        }
        prev = n;
        ++visits;
    });
    EXPECT_EQ(visits, SharerBits::kMaxNodes);
}

} // namespace
